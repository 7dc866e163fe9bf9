// Package rpc exercises the obswire analyzer inside its own scope: it is
// both a dependency of the client fixture and a test subject.
package rpc

import (
	"internal/obs"
	"internal/transport"
)

// Caller issues calls over a transport connection.
type Caller struct {
	ep    transport.Conn
	calls *obs.Counter
}

// Call is instrumented: wire traffic plus a counter.
func (c *Caller) Call(to transport.Addr, payload any) error {
	c.calls.Inc()
	return c.ep.Send(to, payload)
}

// Go is the asynchronous call, instrumented like Call.
func (c *Caller) Go(to transport.Addr, payload any, done chan<- error) {
	c.calls.Inc()
	done <- c.ep.Send(to, payload)
}

// Send touches the wire with no instrumentation at all.
func (c *Caller) Send(to transport.Addr, payload any) error { // want `exported entry point Send sends replica traffic but records no metrics or trace`
	return c.ep.Send(to, payload)
}

// Timeout never touches the wire; nothing to instrument.
func (c *Caller) Timeout() int { return 0 }
