package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the TCP frame decoder. It must
// never panic, every data frame it accepts must satisfy the header range
// checks, and re-encoding what it accepted must reproduce the bytes it
// consumed (acks as the fixed 13-byte frame, data frames through
// appendDataFrame).
func FuzzReadFrame(f *testing.F) {
	for _, m := range []*Message{
		{From: 0, To: 1, Kind: MsgFold, Tag: 2, Mode: 1, Iter: 3, Rows: []int32{4, 9}, Data: []float64{1.5, -2, math.Inf(1), 0}},
		{From: 6, To: 0, Kind: MsgReduce, Tag: TagFit, Mode: -1, Iter: 12, Data: []float64{math.NaN()}},
		{From: 1, To: 0, Kind: MsgBcast},
	} {
		f.Add(appendDataFrame(nil, m, 7))
	}
	var ack [13]byte
	binary.LittleEndian.PutUint32(ack[0:4], 9)
	ack[4] = frameAck
	binary.LittleEndian.PutUint64(ack[5:13], 42)
	f.Add(ack[:])
	f.Add(ack[:7])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		ftype, seq, msg, err := readFrame(bufio.NewReader(bytes.NewReader(in)))
		if err != nil {
			return
		}
		var again []byte
		switch ftype {
		case frameAck:
			if msg != nil {
				t.Fatalf("ack frame decoded with a message %+v", msg)
			}
			again = binary.LittleEndian.AppendUint32(nil, 9)
			again = append(again, frameAck)
			again = binary.LittleEndian.AppendUint64(again, seq)
		case frameData:
			if msg == nil {
				t.Fatal("data frame decoded without a message")
			}
			if msg.From < 0 || msg.To < 0 || msg.Mode < -1 || msg.Iter < 0 {
				t.Fatalf("accepted out-of-range header %+v", msg)
			}
			again = appendDataFrame(nil, msg, seq)
		default:
			t.Fatalf("accepted frame type %d", ftype)
		}
		if len(again) > len(in) || !bytes.Equal(again, in[:len(again)]) {
			t.Fatalf("re-encoding differs from the consumed bytes:\n got %x\nfrom %x", again, in)
		}
	})
}
