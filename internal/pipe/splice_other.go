//go:build !linux

package pipe

import "net"

// spliceRest has no splice(2) off Linux: every direction keeps its user
// buffer.
func spliceRest(dst, src net.Conn, pipeBytes int, idle *idleWatch, m *meter) (handled bool, err error) {
	return false, nil
}
