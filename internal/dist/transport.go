package dist

import (
	"errors"
	"fmt"
	"sync"
)

// MsgKind labels the protocol phase a Message belongs to. A sharded run's
// endpoints (see exchange.go) exchange four kinds of traffic: fold partials
// (touching process → row owner), expand updates (row owner → touching
// process), reduce partials (every process → process 0), and broadcast
// results (process 0 → every process).
type MsgKind uint8

const (
	MsgFold MsgKind = iota
	MsgExpand
	MsgReduce
	MsgBcast
)

func (k MsgKind) String() string {
	switch k {
	case MsgFold:
		return "fold"
	case MsgExpand:
		return "expand"
	case MsgReduce:
		return "reduce"
	case MsgBcast:
		return "bcast"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Reduce/broadcast phase tags (Message.Tag): one mode step performs two
// all-reduces (column sums-of-squares, then the partial Gram matrix) and
// each iteration ends with a scalar fit reduce, then, when the run has a
// Progress callback, a scalar stop vote. The tag disambiguates them so
// selective receive never depends on arrival order.
const (
	TagNorm uint8 = iota
	TagGram
	TagFit
	TagStop
)

// Message is one unit of protocol traffic. Rows names the factor-matrix
// rows the payload covers (fold/expand); Data is the row-major payload
// (len(Rows)×rank values for fold/expand, a flat vector for reduce/bcast).
// Mode is −1 for iteration-scoped phases (the fit reduce, the stop vote).
type Message struct {
	From, To int
	Kind     MsgKind
	Tag      uint8
	Mode     int
	Iter     int
	Rows     []int32
	Data     []float64
}

// ErrClosed is returned by Send/Recv once the transport has been closed —
// either explicitly or because a peer aborted the run.
var ErrClosed = errors.New("dist: transport closed")

// Transport moves Messages between the P processes of a cluster. Send
// blocks until the message is durably handed to the destination (for the
// TCP transport: acknowledged, possibly after retries); Recv blocks until
// a message for proc arrives or the transport closes. Implementations must
// preserve per-(sender,receiver) FIFO order for delivered messages and
// deliver each accepted message exactly once — the solver's determinism
// argument (DESIGN.md §2j) builds on those two guarantees.
type Transport interface {
	// Name identifies the implementation ("chan", "tcp") for metrics labels.
	Name() string
	// P returns the number of processes the transport connects.
	P() int
	Send(m *Message) error
	Recv(proc int) (*Message, error)
	Close() error
}

// mailbox is an unbounded FIFO queue with blocking receive. Unbounded is a
// correctness requirement, not a convenience: the SPMD protocol has phases
// where every process sends before any receives, so a bounded queue could
// deadlock the send side. Receive advances head instead of re-slicing the
// front away, and a full queue compacts before it grows, so the backing
// array is reused: in steady state the queue allocates nothing.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []*Message // queued messages are q[head:]
	head   int
	closed bool
}

// newMailbox builds the mailbox of one of procs processes. The queue starts
// with room for two messages per process: at P = 2 the exchange protocol
// never has more in flight from a peer, so the queue of such a run never
// grows.
func newMailbox(procs int) *mailbox {
	b := &mailbox{q: make([]*Message, 0, 2*procs)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m *Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if len(b.q) == cap(b.q) && b.head > 0 {
		n := copy(b.q, b.q[b.head:])
		clear(b.q[n:])
		b.q, b.head = b.q[:n], 0
	}
	b.q = append(b.q, m)
	b.cond.Signal()
	return nil
}

func (b *mailbox) get() (*Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.head == len(b.q) && !b.closed {
		b.cond.Wait()
	}
	if b.head == len(b.q) {
		return nil, ErrClosed
	}
	m := b.q[b.head]
	b.q[b.head] = nil
	b.head++
	if b.head == len(b.q) {
		b.q, b.head = b.q[:0], 0
	}
	return m, nil
}

// close wakes every blocked get and drops any queued messages: after
// close, get returns ErrClosed immediately. An aborting run must unblock
// fast, not replay stale traffic.
func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.q, b.head = nil, 0
	b.cond.Broadcast()
	b.mu.Unlock()
}

// ChanTransport is the deterministic in-process transport: one unbounded
// mailbox per process, Send copies the payload (no memory sharing between
// sender and receiver, mirroring real network semantics). Delivery is
// immediate and loss-free.
//
// It implements the Release facet: a consumed message handed back goes on
// the free list of its link and kind, and the next Send on that link and
// kind copies into it, so the buffers grow to size during the first sweep
// and a steady iteration allocates nothing. Lists are kept per kind because
// the protocol has at most one message of a kind in flight on a link at
// P = 2, so each list's buffer sees the same sequence of sizes every sweep.
type ChanTransport struct {
	boxes []*mailbox
	free  []freeList // (from·P + to)·numKinds + kind
	once  sync.Once
}

// numKinds is the number of MsgKind values with a free list.
const numKinds = int(MsgBcast) + 1

// freeList holds the released messages of one link and kind.
type freeList struct {
	mu sync.Mutex
	ms []*Message
}

// NewChanTransport builds an in-process transport connecting p processes.
func NewChanTransport(p int) *ChanTransport {
	if p <= 0 {
		p = 1
	}
	t := &ChanTransport{boxes: make([]*mailbox, p), free: make([]freeList, p*p*numKinds)}
	for i := range t.boxes {
		t.boxes[i] = newMailbox(p)
	}
	return t
}

func (t *ChanTransport) Name() string { return "chan" }
func (t *ChanTransport) P() int       { return len(t.boxes) }

func (t *ChanTransport) Send(m *Message) error {
	if m.To < 0 || m.To >= len(t.boxes) {
		return fmt.Errorf("dist: send to invalid process %d (P=%d)", m.To, len(t.boxes))
	}
	// Copy the payload: the sender is free to reuse its buffers the moment
	// Send returns, exactly as with a real wire.
	var c *Message
	if l := t.freeList(m); l != nil {
		l.mu.Lock()
		if n := len(l.ms); n > 0 {
			c = l.ms[n-1]
			l.ms = l.ms[:n-1]
		}
		l.mu.Unlock()
	}
	if c == nil {
		c = new(Message)
	}
	rows, data := c.Rows[:0], c.Data[:0]
	*c = *m
	c.Rows = append(rows, m.Rows...)
	c.Data = append(data, m.Data...)
	return t.boxes[m.To].put(c)
}

func (t *ChanTransport) Recv(proc int) (*Message, error) {
	if proc < 0 || proc >= len(t.boxes) {
		return nil, fmt.Errorf("dist: recv on invalid process %d (P=%d)", proc, len(t.boxes))
	}
	return t.boxes[proc].get()
}

// Release hands back a message Recv returned, once the receiver is done
// with it; a later Send on the same link and kind reuses the message and
// its buffers. The caller must not touch m afterwards.
func (t *ChanTransport) Release(m *Message) {
	if l := t.freeList(m); l != nil {
		l.mu.Lock()
		l.ms = append(l.ms, m)
		l.mu.Unlock()
	}
}

// freeList returns the free list of m's link and kind, or nil when m names
// no link of this transport.
func (t *ChanTransport) freeList(m *Message) *freeList {
	p := len(t.boxes)
	if m.From < 0 || m.From >= p || m.To < 0 || m.To >= p || int(m.Kind) >= numKinds {
		return nil
	}
	return &t.free[(m.From*p+m.To)*numKinds+int(m.Kind)]
}

func (t *ChanTransport) Close() error {
	t.once.Do(func() {
		for _, b := range t.boxes {
			b.close()
		}
	})
	return nil
}
