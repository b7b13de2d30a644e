package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig injects communication faults on the sender side of the TCP
// transport: each outgoing data frame is independently dropped (never
// written), duplicated (written twice), or delayed (written asynchronously
// after Delay, racing the sender's retransmission timer). Faults exercise
// the reliability layer — acknowledged retransmission plus receiver-side
// sequence dedup keeps delivery exactly-once, so solver numerics are
// unaffected by any fault mix.
type FaultConfig struct {
	DropProb  float64
	DupProb   float64
	DelayProb float64
	Delay     time.Duration
	Seed      int64
}

func (f FaultConfig) enabled() bool {
	return f.DropProb > 0 || f.DupProb > 0 || f.DelayProb > 0
}

// TCPConfig tunes the loopback transport's reliability layer.
type TCPConfig struct {
	Fault FaultConfig
	// AckTimeout is the initial retransmission timeout; it doubles on every
	// retry (exponential backoff). Defaults to 200ms.
	AckTimeout time.Duration
	// MaxRetries bounds retransmissions per message; once exhausted Send
	// returns a *RetryExhaustedError instead of blocking forever. Defaults
	// to 8.
	MaxRetries int
}

// RetryExhaustedError reports a message that was never acknowledged within
// MaxRetries retransmissions — the typed "give up" signal the fault tests
// assert on (via errors.As) in place of a hang.
type RetryExhaustedError struct {
	From, To, Attempts int
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("dist: send %d→%d unacknowledged after %d attempts", e.From, e.To, e.Attempts)
}

// Frame types on the wire. See DESIGN.md §2j for the full format.
const (
	frameData = 0
	frameAck  = 1
)

// maxFramePayload bounds a frame so a corrupt length prefix cannot drive a
// pathological allocation.
const maxFramePayload = 1 << 26

// tcpLink is the sender-side state of one directed process pair. The
// sender's worker goroutine is the only writer of data frames (wmu guards
// against the asynchronous delayed-write fault path) and serveAcks is the
// only reader of ack frames, so each direction of the connection has
// exactly one reader and one writer.
type tcpLink struct {
	conn net.Conn
	ack  chan uint64
	seq  uint64
	buf  []byte
	wmu  sync.Mutex
}

// TCPTransport connects P in-process "processes" over a full mesh of
// loopback TCP connections carrying length-prefixed binary frames. Every
// data frame is positively acknowledged by the receiver; the sender
// retransmits on timeout with exponential backoff and the receiver dedups
// by per-link sequence number, so delivery is exactly-once and per-link
// FIFO even under injected drop/duplicate/delay faults.
type TCPTransport struct {
	cfg       TCPConfig
	boxes     []*mailbox
	links     [][]*tcpLink // links[from][to]; nil on the diagonal
	listeners []net.Listener
	retries   atomic.Int64
	faultMu   sync.Mutex
	faultRng  *rand.Rand
	closed    chan struct{}
	once      sync.Once
	wg        sync.WaitGroup
}

// NewTCPTransport builds the p-process loopback mesh: p listeners on
// 127.0.0.1:0, one dialed connection per ordered pair, identified by a
// 4-byte hello carrying the dialer's process id.
func NewTCPTransport(p int, cfg TCPConfig) (*TCPTransport, error) {
	if p <= 0 {
		p = 1
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 200 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	t := &TCPTransport{
		cfg:       cfg,
		boxes:     make([]*mailbox, p),
		links:     make([][]*tcpLink, p),
		listeners: make([]net.Listener, p),
		faultRng:  rand.New(rand.NewSource(cfg.Fault.Seed)),
		closed:    make(chan struct{}),
	}
	for i := 0; i < p; i++ {
		t.boxes[i] = newMailbox(p)
		t.links[i] = make([]*tcpLink, p)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("dist: tcp listen: %w", err)
		}
		t.listeners[i] = ln
	}
	// Accept loops: each process i accepts p−1 inbound connections, reads
	// the dialer's hello, and serves data frames from that peer.
	var acceptWG sync.WaitGroup
	acceptErrs := make([]error, p)
	for i := 0; i < p; i++ {
		acceptWG.Add(1)
		go func(i int) {
			defer acceptWG.Done()
			for j := 0; j < p-1; j++ {
				conn, err := t.listeners[i].Accept()
				if err != nil {
					acceptErrs[i] = err
					return
				}
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					acceptErrs[i] = err
					conn.Close()
					return
				}
				from := int(int32(binary.LittleEndian.Uint32(hello[:])))
				if from < 0 || from >= p || from == i {
					acceptErrs[i] = fmt.Errorf("dist: tcp hello from invalid process %d", from)
					conn.Close()
					return
				}
				t.wg.Add(1)
				go t.serveData(i, conn)
			}
		}(i)
	}
	// Dial the full mesh.
	var dialErr error
	for from := 0; from < p && dialErr == nil; from++ {
		for to := 0; to < p; to++ {
			if to == from {
				continue
			}
			conn, err := net.Dial("tcp", t.listeners[to].Addr().String())
			if err != nil {
				dialErr = err
				break
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(int32(from)))
			if _, err := conn.Write(hello[:]); err != nil {
				dialErr = err
				conn.Close()
				break
			}
			link := &tcpLink{conn: conn, ack: make(chan uint64, 64)}
			t.links[from][to] = link
			t.wg.Add(1)
			go t.serveAcks(link)
		}
	}
	acceptWG.Wait()
	if dialErr == nil {
		for _, err := range acceptErrs {
			if err != nil {
				dialErr = err
				break
			}
		}
	}
	if dialErr != nil {
		t.Close()
		return nil, fmt.Errorf("dist: tcp mesh setup: %w", dialErr)
	}
	return t, nil
}

func (t *TCPTransport) Name() string { return "tcp" }
func (t *TCPTransport) P() int       { return len(t.boxes) }

// Retries reports the total number of retransmitted data frames; exposed
// through the adatm_dist_retries metric.
func (t *TCPTransport) Retries() int64 { return t.retries.Load() }

// Send transmits m and blocks until the receiver acknowledges it,
// retransmitting on timeout with exponential backoff.
func (t *TCPTransport) Send(m *Message) error {
	p := len(t.boxes)
	if m.From < 0 || m.From >= p || m.To < 0 || m.To >= p || m.From == m.To {
		return fmt.Errorf("dist: tcp send with invalid route %d→%d (P=%d)", m.From, m.To, p)
	}
	link := t.links[m.From][m.To]
	link.seq++
	link.buf = appendDataFrame(link.buf[:0], m, link.seq)
	timeout := t.cfg.AckTimeout
	for attempt := 1; ; attempt++ {
		if err := t.writeFaulty(link); err != nil {
			return err
		}
		acked, err := t.waitAck(link, link.seq, timeout)
		if err != nil {
			return err
		}
		if acked {
			return nil
		}
		if attempt > t.cfg.MaxRetries {
			return &RetryExhaustedError{From: m.From, To: m.To, Attempts: attempt}
		}
		t.retries.Add(1)
		timeout *= 2
	}
}

// waitAck blocks until the link's current sequence number is acknowledged
// (true), the timeout fires (false), or the transport closes (error).
// Stale acks — retransmission duplicates of earlier sequence numbers —
// are drained and ignored.
func (t *TCPTransport) waitAck(link *tcpLink, seq uint64, timeout time.Duration) (bool, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case s := <-link.ack:
			if s >= seq {
				return true, nil
			}
		case <-timer.C:
			return false, nil
		case <-t.closed:
			return false, ErrClosed
		}
	}
}

// writeFaulty writes the link's encoded frame, applying any configured
// fault: drop skips the write entirely, duplicate writes the frame twice,
// delay hands a copy to a goroutine that writes it after Fault.Delay
// (racing the retransmission timer, which is what exercises dedup).
func (t *TCPTransport) writeFaulty(link *tcpLink) error {
	f := t.cfg.Fault
	if f.enabled() {
		t.faultMu.Lock()
		drop := t.faultRng.Float64() < f.DropProb
		dup := t.faultRng.Float64() < f.DupProb
		delay := t.faultRng.Float64() < f.DelayProb
		t.faultMu.Unlock()
		if drop {
			return nil
		}
		if delay && f.Delay > 0 {
			frame := append([]byte(nil), link.buf...)
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				select {
				case <-time.After(f.Delay):
				case <-t.closed:
					return
				}
				link.wmu.Lock()
				link.conn.Write(frame)
				link.wmu.Unlock()
			}()
			return nil
		}
		if dup {
			if err := t.writeFrame(link, link.buf); err != nil {
				return err
			}
		}
	}
	return t.writeFrame(link, link.buf)
}

func (t *TCPTransport) writeFrame(link *tcpLink, frame []byte) error {
	link.wmu.Lock()
	_, err := link.conn.Write(frame)
	link.wmu.Unlock()
	if err != nil {
		select {
		case <-t.closed:
			return ErrClosed
		default:
		}
		return fmt.Errorf("dist: tcp write: %w", err)
	}
	return nil
}

func (t *TCPTransport) Recv(proc int) (*Message, error) {
	if proc < 0 || proc >= len(t.boxes) {
		return nil, fmt.Errorf("dist: recv on invalid process %d (P=%d)", proc, len(t.boxes))
	}
	return t.boxes[proc].get()
}

func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		for _, ln := range t.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for _, row := range t.links {
			for _, link := range row {
				if link != nil {
					link.conn.Close()
				}
			}
		}
		for _, b := range t.boxes {
			b.close()
		}
	})
	return nil
}

// serveData is the receiver-side reader of one inbound connection: it
// decodes data frames, delivers each sequence number exactly once to the
// process mailbox, and acknowledges every arrival — duplicates included,
// since a duplicate usually means the original ack was lost.
func (t *TCPTransport) serveData(to int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	seen := make(map[uint64]struct{})
	var ackBuf [13]byte
	for {
		ftype, seq, msg, err := readFrame(br)
		if err != nil {
			return
		}
		if ftype != frameData || msg == nil {
			continue
		}
		if _, dup := seen[seq]; !dup {
			seen[seq] = struct{}{}
			if t.boxes[to].put(msg) != nil {
				return
			}
		}
		binary.LittleEndian.PutUint32(ackBuf[0:4], 9)
		ackBuf[4] = frameAck
		binary.LittleEndian.PutUint64(ackBuf[5:13], seq)
		if _, err := conn.Write(ackBuf[:]); err != nil {
			return
		}
	}
}

// serveAcks is the sender-side reader of one dialed connection: it feeds
// acknowledged sequence numbers to the link's ack channel, discarding
// when the channel is full (a lost ack is recovered by retransmission).
func (t *TCPTransport) serveAcks(link *tcpLink) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(link.conn, 1<<12)
	for {
		ftype, seq, _, err := readFrame(br)
		if err != nil {
			return
		}
		if ftype != frameAck {
			continue
		}
		select {
		case link.ack <- seq:
		default:
		}
	}
}

// appendDataFrame encodes m as a length-prefixed data frame:
//
//	u32 payloadLen | u8 type | u64 seq | i32 from | i32 to |
//	u8 kind | u8 tag | i32 mode | i32 iter | u32 nrows | u32 nvals |
//	nrows × i32 row | nvals × f64 value
//
// All integers little-endian; float64 values as IEEE-754 bits.
func appendDataFrame(buf []byte, m *Message, seq uint64) []byte {
	payload := 1 + 8 + 4 + 4 + 1 + 1 + 4 + 4 + 4 + 4 + 4*len(m.Rows) + 8*len(m.Data)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, frameData)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(m.From)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(m.To)))
	buf = append(buf, uint8(m.Kind), m.Tag)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(m.Mode)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(m.Iter)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Rows)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Data)))
	for _, r := range m.Rows {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	for _, v := range m.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// readFrame decodes one frame. For ack frames msg is nil. Anything but a
// 9-byte ack or a well-formed data frame with non-negative processes and
// iteration and a mode of at least −1 (the fit's all-reduce) is an error.
func readFrame(br *bufio.Reader) (ftype byte, seq uint64, msg *Message, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(br, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 9 || n > maxFramePayload {
		return 0, 0, nil, fmt.Errorf("dist: tcp frame length %d out of range", n)
	}
	payload := make([]byte, n)
	if _, err = io.ReadFull(br, payload); err != nil {
		return 0, 0, nil, err
	}
	ftype = payload[0]
	seq = binary.LittleEndian.Uint64(payload[1:9])
	switch {
	case ftype == frameAck && n == 9:
		return ftype, seq, nil, nil
	case ftype != frameData:
		return 0, 0, nil, fmt.Errorf("dist: tcp frame type %d with %d-byte payload", ftype, n)
	}
	if len(payload) < 31 {
		return 0, 0, nil, fmt.Errorf("dist: tcp data frame truncated (%d bytes)", len(payload))
	}
	m := &Message{
		From: int(int32(binary.LittleEndian.Uint32(payload[9:13]))),
		To:   int(int32(binary.LittleEndian.Uint32(payload[13:17]))),
		Kind: MsgKind(payload[17]),
		Tag:  payload[18],
		Mode: int(int32(binary.LittleEndian.Uint32(payload[19:23]))),
		Iter: int(int32(binary.LittleEndian.Uint32(payload[23:27]))),
	}
	if m.From < 0 || m.To < 0 || m.Mode < -1 || m.Iter < 0 {
		return 0, 0, nil, fmt.Errorf("dist: tcp data frame header out of range (from %d, to %d, mode %d, iter %d)",
			m.From, m.To, m.Mode, m.Iter)
	}
	nrows := binary.LittleEndian.Uint32(payload[27:31])
	off := 31
	if len(payload) < off+4 {
		return 0, 0, nil, fmt.Errorf("dist: tcp data frame truncated (%d bytes)", len(payload))
	}
	nvals := binary.LittleEndian.Uint32(payload[off : off+4])
	off += 4
	want := off + 4*int(nrows) + 8*int(nvals)
	if len(payload) != want {
		return 0, 0, nil, fmt.Errorf("dist: tcp data frame size %d, want %d", len(payload), want)
	}
	if nrows > 0 {
		m.Rows = make([]int32, nrows)
		for i := range m.Rows {
			m.Rows[i] = int32(binary.LittleEndian.Uint32(payload[off:]))
			off += 4
		}
	}
	if nvals > 0 {
		m.Data = make([]float64, nvals)
		for i := range m.Data {
			m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
	}
	return ftype, seq, m, nil
}
