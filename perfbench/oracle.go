package main

import (
	"encoding/binary"
	"math"
	"syscall"
	"time"

	"repro/internal/airspace"
)

// encodeWorld appends the world encoding internal/conformance hashes:
// every semantically committed aircraft field in declaration order,
// little endian, floats by IEEE bits. ExpX/ExpY are per-period scratch
// and excluded there too.
func encodeWorld(buf []byte, w *airspace.World) []byte {
	var rec [12 * 8]byte
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		vals := [...]uint64{
			uint64(uint32(a.ID)),
			math.Float64bits(a.X), math.Float64bits(a.Y),
			math.Float64bits(a.DX), math.Float64bits(a.DY),
			math.Float64bits(a.Alt),
			math.Float64bits(a.BatX), math.Float64bits(a.BatY),
			boolBits(a.Col),
			math.Float64bits(a.TimeTill),
			uint64(uint32(a.ColWith)),
			uint64(uint8(a.RMatch)),
		}
		for j, v := range vals {
			binary.LittleEndian.PutUint64(rec[8*j:], v)
		}
		buf = append(buf, rec[:]...)
	}
	return buf
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
