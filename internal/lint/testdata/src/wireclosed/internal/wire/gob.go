package wire

// encoding/gob is banned here too: the wire package holds the one
// serialization path, the binary codec, and a second one is a finding.
import "encoding/gob" // want `encoding/gob opens a second serialization path`

func init() {
	gob.Register(PingReq{})
	gob.Register(PingResp{})
}
