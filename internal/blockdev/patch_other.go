//go:build !amd64

package blockdev

func diffSpan(b, base *[diffSpanLen]byte) uint64 { return diffSpanGo(b, base) }
