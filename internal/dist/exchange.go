package dist

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"adatm/internal/dense"
	"adatm/internal/obs"
)

// ErrBadMessage reports a received message that does not carry what the
// exchange schedule says its sender sends: exactly the schedule's row
// list, and exactly one payload value per row and rank column (for a fold
// or an expand) or per element of the all-reduced vector (for a reduce or
// a broadcast). The error wrapping it names the sender, kind, mode and
// iteration.
var ErrBadMessage = errors.New("dist: malformed message")

// checkMessage returns an ErrBadMessage error unless msg carries exactly
// rows and n values. It compares in place and allocates nothing on success.
func checkMessage(msg *Message, rows []int32, n int) error {
	if slices.Equal(msg.Rows, rows) && len(msg.Data) == n {
		return nil
	}
	return fmt.Errorf("%w: %s from process %d, mode %d, iteration %d: %d rows and %d values, want %d rows and %d values",
		ErrBadMessage, msg.Kind, msg.From, msg.Mode, msg.Iter, len(msg.Rows), len(msg.Data), len(rows), n)
}

// Exchange is the row-exchange protocol of one sharded CP-ALS run: the
// transport and the traffic counters, over the schedule the cluster's
// RowOwners carry of which rows each process folds to which owner. The ALS
// loop itself is package cpd's; each of its processes talks to the others
// through one Endpoint. Per mode the loop calls Reduce (local MTTKRP rows
// go to their owners and are summed in ascending process order, so the
// reduction tree is fixed), AllReduce on the column sums of squares, Expand
// (owners return the updated rows to every process touching them) and
// AllReduce on the partial Gram; each iteration ends with a scalar
// AllReduce for the fit.
type Exchange struct {
	c      *Cluster
	tr     Transport
	rel    releaser // tr's Release facet, or nil
	rank   int
	msgs   atomic.Int64
	foldNS atomic.Int64
}

// NewExchange prepares a rank-`rank` run over the cluster's partition and
// its schedule and, when reg is non-nil, registers the adatm_dist_* series
// (volume, messages, fold time, transport retries) labeled by partition and
// transport name.
func NewExchange(c *Cluster, tr Transport, rank int, reg *obs.Registry) (*Exchange, error) {
	if tr == nil {
		return nil, errors.New("dist: nil transport")
	}
	if tr.P() != c.Part.P {
		return nil, fmt.Errorf("dist: transport connects %d processes, cluster has %d", tr.P(), c.Part.P)
	}
	e := &Exchange{c: c, tr: tr, rank: rank}
	e.rel, _ = tr.(releaser)
	e.registerMetrics(reg)
	return e, nil
}

// Messages counts the transport messages sent so far (folds, expands,
// reduces, broadcasts).
func (e *Exchange) Messages() int64 { return e.msgs.Load() }

// Retries counts transport-level retransmissions (TCP transport only).
func (e *Exchange) Retries() int64 {
	if rt, ok := e.tr.(retrier); ok {
		return rt.Retries()
	}
	return 0
}

// Gather assembles mode's factor from the processes' replicas: each owner
// holds the authoritative rows it updated. Rows no process owns are empty
// rows and stay zero, matching the single-node solver, whose zero MTTKRP
// rows solve and normalize to zero.
func (e *Exchange) Gather(mode int, replicas []*dense.Matrix) *dense.Matrix {
	out := dense.New(e.c.X.Dims[mode], e.rank)
	for q, f := range replicas {
		for _, i := range e.c.Owners.own[mode][q] {
			copy(out.Row(int(i)), f.Row(int(i)))
		}
	}
	return out
}

// retrier is the optional transport facet reporting retransmissions.
type retrier interface{ Retries() int64 }

// releaser is the optional transport facet that takes back a received
// message once its consumer is done with it, so the transport can reuse
// the message and its buffers (ChanTransport).
type releaser interface{ Release(*Message) }

// registerMetrics wires the adatm_dist_* series. Function metrics are
// registered once per (name, labels) pair, so repeated runs over the same
// registry with the same partition/transport labels keep reporting the
// first run's state; the CLI builds one registry per run.
func (e *Exchange) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	labels := obs.Labels{"partition": e.c.Part.Name, "transport": e.tr.Name()}
	vol := e.c.Comm.VolumeBytes(e.rank)
	reg.GaugeFunc("adatm_dist_volume_bytes",
		"Predicted fold+expand communication volume per iteration (bytes) under the chosen partition.",
		labels, func() float64 { return float64(vol) })
	reg.CounterFunc("adatm_dist_messages_total",
		"Transport messages sent by the distributed solver (folds, expands, reduces, broadcasts).",
		labels, func() float64 { return float64(e.msgs.Load()) })
	reg.CounterFunc("adatm_dist_fold_seconds_total",
		"Time spent gathering and summing fold partials, across all processes.",
		labels, func() float64 { return float64(e.foldNS.Load()) / 1e9 })
	reg.CounterFunc("adatm_dist_retries_total",
		"Transport-level retransmissions (TCP transport; 0 for the in-process transport).",
		labels, func() float64 { return float64(e.Retries()) })
}

// inbox wraps the transport's Recv with selective receive: messages for a
// later protocol phase are stashed until their phase asks for them. Safe
// because the transport preserves per-sender FIFO order and each process's
// phases are totally ordered.
type inbox struct {
	tr      Transport
	me      int
	pending []*Message
}

func (b *inbox) recvMatch(kind MsgKind, tag uint8, mode, iter, from int) (*Message, error) {
	match := func(m *Message) bool {
		return m.Kind == kind && m.Tag == tag && m.Mode == mode && m.Iter == iter && m.From == from
	}
	for idx, m := range b.pending {
		if match(m) {
			b.pending = append(b.pending[:idx], b.pending[idx+1:]...)
			return m, nil
		}
	}
	for {
		m, err := b.tr.Recv(b.me)
		if err != nil {
			return nil, err
		}
		if match(m) {
			return m, nil
		}
		b.pending = append(b.pending, m)
	}
}

// Endpoint is one process's side of the exchange. Its buffers are sized
// once for the largest mode, so in steady state a run allocates only what
// the transport itself does: the Transport contract lets a sender reuse a
// payload as soon as Send returns, and every received message is released
// back to a transport with the Release facet once it has been consumed (a
// message stashed for a later phase stays unreleased until then). Every
// received message is checked against the schedule before it is read: one
// without its sender's rows and payload length ends the run with
// ErrBadMessage, rather than a panic or a sum into the wrong row.
type Endpoint struct {
	ex       *Exchange
	id       int
	inbox    inbox
	fold     []float64   // summed MTTKRP rows this process owns
	own      []float64   // this process's owned factor rows
	sendBuf  [][]float64 // per-peer payload, shared by fold and expand
	incoming []*Message  // fold partials of the current mode, by sender
	out      Message
	mOwn     dense.Matrix
	uOwn     dense.Matrix
}

// Endpoint returns process p's endpoint. Each process must use its own.
func (e *Exchange) Endpoint(p int) *Endpoint {
	sched, r, P := e.c.Owners, e.rank, e.c.Part.P
	maxOwn := 0
	for m := range sched.own {
		maxOwn = max(maxOwn, len(sched.own[m][p]))
	}
	ep := &Endpoint{
		ex: e, id: p, inbox: inbox{tr: e.tr, me: p},
		fold:     make([]float64, maxOwn*r),
		own:      make([]float64, maxOwn*r),
		sendBuf:  make([][]float64, P),
		incoming: make([]*Message, P),
	}
	for q := range ep.sendBuf {
		rows := 0
		for m := range sched.fold {
			rows = max(rows, len(sched.fold[m][p][q]), len(sched.fold[m][q][p]))
		}
		ep.sendBuf[q] = make([]float64, rows*r)
	}
	return ep
}

// release hands a consumed message back to the transport, if it takes
// messages back.
func (p *Endpoint) release(m *Message) {
	if p.ex.rel != nil {
		p.ex.rel.Release(m)
	}
}

func (p *Endpoint) send(to int, kind MsgKind, tag uint8, mode, iter int, rows []int32, data []float64) error {
	p.out = Message{From: p.id, To: to, Kind: kind, Tag: tag, Mode: mode, Iter: iter, Rows: rows, Data: data}
	p.ex.msgs.Add(1)
	return p.ex.tr.Send(&p.out)
}

// payload copies the listed rows of m into the per-peer send buffer.
func (p *Endpoint) payload(q int, rows []int32, m *dense.Matrix) []float64 {
	r := p.ex.rank
	data := p.sendBuf[q][:len(rows)*r]
	for j, i := range rows {
		copy(data[j*r:(j+1)*r], m.Row(int(i)))
	}
	return data
}

// Reduce sends this process's MTTKRP rows m of mode to their owners and
// sums the partials of the rows it owns in ascending process order, the
// fixed reduction tree that makes a run transport-independent. It returns
// those sums together with a copy of u's owned rows, both compact: row j
// belongs to the j-th owned row in ascending order.
func (p *Endpoint) Reduce(mode, iter int, m, u *dense.Matrix) (*dense.Matrix, *dense.Matrix, error) {
	sched, r := p.ex.c.Owners, p.ex.rank
	for q, rows := range sched.fold[mode][p.id] {
		if len(rows) == 0 {
			continue
		}
		if err := p.send(q, MsgFold, 0, mode, iter, rows, p.payload(q, rows, m)); err != nil {
			return nil, nil, err
		}
	}
	t0 := time.Now()
	ownRows := sched.own[mode][p.id]
	fb := p.fold[:len(ownRows)*r]
	clear(fb)
	for q := range p.incoming {
		p.incoming[q] = nil
		rows := sched.fold[mode][q][p.id]
		if q == p.id || len(rows) == 0 {
			continue
		}
		msg, err := p.inbox.recvMatch(MsgFold, 0, mode, iter, q)
		if err != nil {
			return nil, nil, err
		}
		if err := checkMessage(msg, rows, len(rows)*r); err != nil {
			return nil, nil, err
		}
		p.incoming[q] = msg
	}
	for q, msg := range p.incoming {
		if q == p.id {
			for _, i := range sched.self[mode][p.id] {
				addRow(fb, ownRows, i, m.Row(int(i)))
			}
		} else if msg != nil {
			for k, i := range msg.Rows {
				addRow(fb, ownRows, i, msg.Data[k*r:(k+1)*r])
			}
			p.release(msg)
			p.incoming[q] = nil
		}
	}
	p.ex.foldNS.Add(time.Since(t0).Nanoseconds())
	ub := p.own[:len(ownRows)*r]
	for j, i := range ownRows {
		copy(ub[j*r:(j+1)*r], u.Row(int(i)))
	}
	p.mOwn = dense.Matrix{Rows: len(ownRows), Cols: r, Data: fb}
	p.uOwn = dense.Matrix{Rows: len(ownRows), Cols: r, Data: ub}
	return &p.mOwn, &p.uOwn, nil
}

// Expand writes the updated owned rows own (as returned by Reduce) into u,
// sends them to every process that touches them, and receives into u the
// rows this process touches from their owners: the mirror of the fold.
func (p *Endpoint) Expand(mode, iter int, own, u *dense.Matrix) error {
	sched, r := p.ex.c.Owners, p.ex.rank
	for j, i := range sched.own[mode][p.id] {
		copy(u.Row(int(i)), own.Row(j))
	}
	for q := range sched.fold[mode] {
		rows := sched.fold[mode][q][p.id]
		if len(rows) == 0 {
			continue
		}
		if err := p.send(q, MsgExpand, 0, mode, iter, rows, p.payload(q, rows, u)); err != nil {
			return err
		}
	}
	for q, rows := range sched.fold[mode][p.id] {
		if len(rows) == 0 {
			continue
		}
		msg, err := p.inbox.recvMatch(MsgExpand, 0, mode, iter, q)
		if err != nil {
			return err
		}
		if err := checkMessage(msg, rows, len(rows)*r); err != nil {
			return err
		}
		for k, i := range msg.Rows {
			copy(u.Row(int(i)), msg.Data[k*r:(k+1)*r])
		}
		p.release(msg)
	}
	return nil
}

// AllReduce sums v element-wise across all processes with a fixed
// association: process 0 gathers partials in ascending process order (its
// own partial first) and broadcasts the total. Every transport therefore
// produces bit-identical sums. The tag (TagNorm, TagGram, TagFit, TagStop)
// and mode (−1 for the fit and the stop vote) name the phase for selective
// receive.
func (p *Endpoint) AllReduce(v []float64, tag uint8, mode, iter int) error {
	P := p.ex.c.Part.P
	if P == 1 {
		return nil
	}
	if p.id != 0 {
		if err := p.send(0, MsgReduce, tag, mode, iter, nil, v); err != nil {
			return err
		}
		msg, err := p.inbox.recvMatch(MsgBcast, tag, mode, iter, 0)
		if err != nil {
			return err
		}
		if err := checkMessage(msg, nil, len(v)); err != nil {
			return err
		}
		copy(v, msg.Data)
		p.release(msg)
		return nil
	}
	for q := 1; q < P; q++ {
		msg, err := p.inbox.recvMatch(MsgReduce, tag, mode, iter, q)
		if err != nil {
			return err
		}
		if err := checkMessage(msg, nil, len(v)); err != nil {
			return err
		}
		for j := range v {
			v[j] += msg.Data[j]
		}
		p.release(msg)
	}
	for q := 1; q < P; q++ {
		if err := p.send(q, MsgBcast, tag, mode, iter, nil, v); err != nil {
			return err
		}
	}
	return nil
}

// addRow adds src into the compact fold row of owned row i.
func addRow(fb []float64, ownRows []int32, i int32, src []float64) {
	r := len(src)
	j := rowPos(ownRows, i)
	dst := fb[j*r : (j+1)*r]
	for k := range dst {
		dst[k] += src[k]
	}
}

// rowPos locates row i in the sorted owned-row list.
func rowPos(rows []int32, i int32) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if rows[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
