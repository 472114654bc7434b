package multipath

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// wireLog records every byte written to a connection.
type wireLog struct {
	net.Conn
	mu  sync.Mutex
	out bytes.Buffer
}

func (w *wireLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.out.Write(p)
	w.mu.Unlock()
	return w.Conn.Write(p)
}

func (w *wireLog) hex() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return hex.EncodeToString(w.out.Bytes())
}

// TestWireGolden pins the bytes of every frame type, each a 13-byte
// header (type, seq or value, length) as the two ends write them: a
// one-segment transfer over one subflow (data, sub-ACK, ACK, FIN), and
// the JOIN a reconnecting sender sends.
func TestWireGolden(t *testing.T) {
	sConns, rConns := tcpPairs(t, 1)
	sw := &wireLog{Conn: sConns[0]}
	rw := &wireLog{Conn: rConns[0]}
	s, err := NewSender([]net.Conn{sw}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver([]net.Conn{rw}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	if _, err := s.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if b := <-got; string(b) != "hello" {
		t.Fatalf("received %q", b)
	}
	_ = r.Close() // waits for the read loop, so every receiver write is logged

	const (
		data   = "01" + "0000000000000000" + "00000005" + "68656c6c6f"
		fin    = "03" + "0000000000000001" + "00000000"
		subAck = "04" + "0000000000000001" + "00000000"
		ack    = "02" + "0000000000000001" + "00000000"
	)
	if h := sw.hex(); h != data+fin {
		t.Errorf("sender wrote %s, want %s", h, data+fin)
	}
	if h := rw.hex(); h != subAck+ack+ack {
		t.Errorf("receiver wrote %s, want %s", h, subAck+ack+ack)
	}

	// JOIN: channel ID in the seq field, subflow index in the length.
	sConns, rConns = tcpPairs(t, 2)
	defer rConns[0].Close()
	a, b := net.Pipe()
	redial := make(chan net.Conn, 1)
	redial <- a
	cfg := Config{
		ChannelID: 0x0102030405060708,
		Dialer: func(int) (net.Conn, error) {
			select {
			case c := <-redial:
				return c, nil
			default:
				return nil, errors.New("one redial only")
			}
		},
	}
	s, err = NewSender(sConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = rConns[1].Close() // subflow 1 dies; the sender redials it
	join := make([]byte, 13)
	_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadFull(b, join)
	_ = b.Close() // refuse the join
	_ = s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h, want := hex.EncodeToString(join), "05"+"0102030405060708"+"00000001"; h != want {
		t.Errorf("join = %s, want %s", h, want)
	}
}
