package model

import (
	"encoding/binary"
	"slices"
	"testing"
)

// refKMV is the sort-based bottom-k sketch kmv must match bit for bit: a
// map of retained hashes, compacted past 2k by sorting and keeping the k
// smallest.
type refKMV struct {
	k      int
	seen   map[uint64]struct{}
	thresh uint64
	exact  bool
}

func (s *refKMV) offer(h uint64) {
	if h >= s.thresh {
		return
	}
	if _, ok := s.seen[h]; ok {
		return
	}
	s.seen[h] = struct{}{}
	if len(s.seen) > 2*s.k {
		hs := s.sorted()[:s.k]
		s.thresh = hs[len(hs)-1] + 1
		s.seen = make(map[uint64]struct{})
		for _, h := range hs {
			s.seen[h] = struct{}{}
		}
		s.exact = false
	}
}

func (s *refKMV) sorted() []uint64 {
	var hs []uint64
	for h := range s.seen {
		hs = append(hs, h)
	}
	slices.Sort(hs)
	return hs
}

func (s *refKMV) estimate() int64 {
	if s.exact || len(s.seen) < s.k {
		return int64(len(s.seen))
	}
	kth := s.sorted()[s.k-1]
	if kth == 0 {
		return int64(s.k)
	}
	frac := float64(kth) / float64(^uint64(0))
	return int64(float64(s.k-1) / frac)
}

// kmvStream decodes fuzz bytes into hashes: each value is a width byte
// (0–8) followed by that many little-endian bytes, so width 0 is hash 0 and
// narrow widths repeat values often.
func kmvStream(data []byte) []uint64 {
	var hs []uint64
	for len(data) > 0 {
		w := min(int(data[0]%9), len(data)-1)
		var buf [8]byte
		copy(buf[:], data[1:1+w])
		hs = append(hs, binary.LittleEndian.Uint64(buf[:]))
		data = data[1+w:]
	}
	return hs
}

// FuzzKMV holds the open-addressing sketch to the sort-based reference and
// to brute force: after any stream of hashes (0 and duplicates included),
// for any k >= 16, the retained set is the smallest distinct values of the
// stream, at least k of them once the sketch has compacted, and every
// estimate, threshold and exact flag matches the reference's.
func FuzzKMV(f *testing.F) {
	seed := func(kb uint8, n int, width byte, step uint64) {
		var data []byte
		for i := 0; i < n; i++ {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], mix64(uint64(i)*step))
			data = append(append(data, width), buf[:width%9]...)
		}
		f.Add(kb, data)
	}
	seed(0, 40, 8, 1)    // under 2k distinct: exact
	seed(0, 1000, 8, 1)  // many compactions
	seed(48, 1000, 8, 3) // k = 64
	seed(0, 600, 1, 1)   // 1-byte hashes: heavy duplicates
	seed(7, 900, 2, 1)   // 2-byte hashes around the threshold
	seed(0, 300, 0, 1)   // hash 0 only
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kb uint8, data []byte) {
		k := 16 + int(kb%64)
		s := newKMV(k)
		ref := &refKMV{k: k, seen: map[uint64]struct{}{}, thresh: ^uint64(0), exact: true}
		stream := kmvStream(data)
		for i, h := range stream {
			s.offer(h)
			ref.offer(h)
			if s.thresh != ref.thresh || s.exact != ref.exact || s.n != len(ref.seen) {
				t.Fatalf("offer %d (%#x): thresh %#x exact %v n %d, reference %#x %v %d",
					i, h, s.thresh, s.exact, s.n, ref.thresh, ref.exact, len(ref.seen))
			}
			if got, want := s.estimate(), ref.estimate(); got != want {
				t.Fatalf("offer %d: estimate %d, reference %d", i, got, want)
			}
		}

		distinct := slices.Clone(stream)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		got := slices.Clone(s.retained())
		slices.Sort(got)
		if len(got) != s.n || len(got) > len(distinct) || !slices.Equal(got, distinct[:len(got)]) {
			t.Fatalf("retained %d hashes (n = %d), not the smallest distinct of %d", len(got), s.n, len(distinct))
		}
		if s.exact && len(got) != len(distinct) {
			t.Fatalf("exact sketch retained %d of %d distinct hashes", len(got), len(distinct))
		}
		if !s.exact && len(got) < k {
			t.Fatalf("compacted sketch retained %d < k = %d hashes", len(got), k)
		}
		for _, h := range distinct[len(got):] {
			if h < s.thresh {
				t.Fatalf("dropped hash %#x below the threshold %#x", h, s.thresh)
			}
		}
	})
}
