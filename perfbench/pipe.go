package main

import (
	"context"
	"net"
	"sync"
)

// pipeListener is an in-memory net.Listener. Its dial hands the server
// one end of a net.Pipe, so requests cross a full HTTP/1.1 client and
// server without a socket: the benchmark needs no network, not even
// loopback.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial is an http.Transport DialContext: it ignores the address and
// connects to this listener.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	err := net.ErrClosed
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	client.Close()
	server.Close()
	return nil, err
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
