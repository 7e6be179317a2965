package transport

import (
	"io"
	"math/bits"
	"sync"
)

// Frame buffers. Every payload a receive returns is a frame buffer: the TCP
// reader reads into one and the in-proc fabric copies into one. Frames come
// from size-classed pools, and Release hands one back, so a receiver that
// releases what it has consumed — the DKV client its replies, the DKV server
// its requests — runs without allocating or zeroing a buffer per message. A
// frame nobody releases is collected by the GC like any other slice.

// maxPooledFrame is the largest frame the pools hand out: 4 MiB, well above
// the DKV replies of a K = 64 iteration (≈ 350 KB each).
const (
	maxFrameClass  = 22
	maxPooledFrame = 1 << maxFrameClass
)

// framePools[c] holds released frames whose capacity lies in
// [1<<c, 1<<(c+1)). Frames are stored as *[]byte boxes so a pool operation
// allocates nothing; emptied boxes are recycled through frameBoxes.
var (
	framePools [maxFrameClass + 1]sync.Pool
	frameBoxes sync.Pool
)

// scribble, when set, overwrites every released frame before it is pooled.
// Race-detector builds set it (release_race.go), so a caller that keeps
// reading a frame it has handed back reads garbage at once, not only on the
// rare run where the pool recycles that buffer under it.
var scribble func([]byte)

// frameClass is the pool class of a capacity or length n ≥ 1: ⌊log2 n⌋.
func frameClass(n int) int { return bits.Len(uint(n)) - 1 }

// newFrame returns a frame of length n. A released frame from n's class is
// reused when its capacity covers n; a fresh frame is exactly n bytes, never
// rounded up. A pooled frame too small for n is dropped rather than put back,
// so under a steady mix of sizes each class ratchets up to the largest frame
// it is asked for and then always hits.
func newFrame(n int) []byte {
	if n > 0 && n <= maxPooledFrame {
		if box, _ := framePools[frameClass(n)].Get().(*[]byte); box != nil {
			b := *box
			*box = nil
			frameBoxes.Put(box)
			if cap(b) >= n {
				return b[:n]
			}
		}
	}
	return make([]byte, n)
}

// Release hands a received payload back to the fabric's frame pools. The
// caller must hold no reference to b, or to any slice of it, once Release is
// called: the next receive on any endpoint may reuse the memory. Releasing is
// optional — an unreleased payload is garbage collected as usual — and any
// byte slice the caller owns may be released, not only a received one.
func Release(b []byte) {
	c := cap(b)
	if c == 0 || frameClass(c) >= len(framePools) {
		return
	}
	b = b[:c]
	if scribble != nil {
		scribble(b)
	}
	box, _ := frameBoxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b
	framePools[frameClass(c)].Put(box)
}

// clonePayload copies an outgoing payload into a frame so the receiver never
// aliases the sender's buffer (nil stays nil, matching the wire round trip).
func clonePayload(p []byte) []byte {
	if p == nil {
		return nil
	}
	b := newFrame(len(p))
	copy(b, p)
	return b
}

// readBody reads an n-byte frame body from r. A body of up to maxPooledFrame
// bytes lands in a pooled frame. A longer one is believed only as far as its
// bytes arrive: the buffer starts at maxPooledFrame and doubles, capped at n,
// each time it fills. So a header that lies about its length costs at most
// one pooled frame plus twice what the peer actually sent, never the 1 GiB
// the header may claim.
func readBody(r io.Reader, n int) ([]byte, error) {
	if n <= maxPooledFrame {
		b := newFrame(n)
		if _, err := io.ReadFull(r, b); err != nil {
			Release(b)
			return nil, err
		}
		return b, nil
	}
	b := make([]byte, maxPooledFrame)
	have := 0
	for {
		m, err := io.ReadFull(r, b[have:])
		have += m
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // EOF at a step boundary is still mid-frame
		}
		if err != nil {
			return nil, err
		}
		if have == n {
			return b, nil
		}
		grown := make([]byte, min(n, 2*len(b)))
		copy(grown, b)
		b = grown
	}
}
