package pipe

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// TestBindContextRelease: a released binding leaves the conn usable after
// its context ends; a context that ends during the exchange fails the
// I/O in flight, ContextErr names the context's error, and Release
// reports that the context ended first.
func TestBindContextRelease(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	bound := BindContext(ctx, a)
	if bound.Release() {
		t.Fatal("Release reported a live context as ended")
	}
	cancel()
	go func() { _, _ = b.Write([]byte{1}) }()
	if _, err := a.Read(make([]byte, 1)); err != nil {
		t.Fatalf("read after the released context ended: %v", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	bound = BindContext(ctx, a)
	cancel()
	_, err := a.Read(make([]byte, 1))
	if !IsTimeout(err) || !errors.Is(ContextErr(ctx, err), context.Canceled) {
		t.Fatalf("read under a cancelled context: %v, want a timeout that maps to context.Canceled", err)
	}
	if !bound.Release() {
		t.Fatal("Release did not report the cancelled context")
	}
}

// deadlineOnly has a deadline but no error yet, as a context does in the
// moment between its deadline passing and its timer firing.
type deadlineOnly struct {
	context.Context
	dl time.Time
}

func (c deadlineOnly) Deadline() (time.Time, bool) { return c.dl, true }

func TestContextErr(t *testing.T) {
	past := deadlineOnly{context.Background(), time.Now().Add(-time.Millisecond)}
	future := deadlineOnly{context.Background(), time.Now().Add(time.Hour)}
	tests := []struct {
		name string
		ctx  context.Context
		err  error
		want error
	}{
		{"timeout at the deadline", past, os.ErrDeadlineExceeded, context.DeadlineExceeded},
		{"timeout before the deadline", future, os.ErrDeadlineExceeded, os.ErrDeadlineExceeded},
		{"timeout without a deadline", context.Background(), os.ErrDeadlineExceeded, os.ErrDeadlineExceeded},
		{"other error at the deadline", past, io.EOF, io.EOF},
	}
	for _, tt := range tests {
		if got := ContextErr(tt.ctx, tt.err); got != tt.want {
			t.Errorf("%s: ContextErr = %v, want %v", tt.name, got, tt.want)
		}
	}
}
