package relational

import "sync"

// hitBufPool recycles the per-segment match buffers of SelectMulti's
// shared passes; without it every batch re-grows one slice per segment
// from nil. Buffers are cleared before going back so they do not pin
// deleted rows.
var hitBufPool = sync.Pool{New: func() any {
	buf := make([]hit, 0, 512)
	return &buf
}}

func getHitBuf() []hit {
	return (*hitBufPool.Get().(*[]hit))[:0]
}

func putHitBuf(buf []hit) {
	if cap(buf) == 0 {
		return
	}
	for i := range buf {
		buf[i] = hit{}
	}
	buf = buf[:0]
	hitBufPool.Put(&buf)
}
