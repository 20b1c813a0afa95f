// Package simnet models the cluster interconnect for simulated distributed
// runs: point-to-point messages with per-link latency and bandwidth, plus a
// rendezvous layer that matches sends to the tasks waiting for them.
//
// It substitutes for the paper's Mellanox FDR InfiniBand fabric between the
// Haswell nodes: the distributed Heat workload's boundary-exchange tasks
// complete when both their local CPU work and the matching remote boundary
// have arrived, which is exactly how a blocking MPI Sendrecv behaves.
package simnet

import (
	"fmt"

	"dynasym/internal/sim"
)

// Network delivers messages between nodes over a shared event engine.
type Network struct {
	engine *sim.Engine
	// Latency is the per-message one-way latency in seconds (FDR IB RDMA
	// latency is ~1 µs; MPI adds protocol overhead).
	Latency float64
	// Bandwidth is the per-link bandwidth in bytes/s (FDR 56 Gb/s ≈
	// 6.8 GB/s; defaults use ~5 GB/s effective).
	Bandwidth float64

	inbox map[MsgKey]*slot
	// Sent and Delivered count messages for diagnostics.
	Sent, Delivered int64
}

// MsgKey identifies one logical message: a (from, to, tag) triple. Tags
// encode application structure (e.g. iteration and direction of a boundary
// exchange).
type MsgKey struct {
	From, To int
	Tag      int64
}

// Receiver is what waits for a message: it is told once, at the virtual
// time the message arrived.
type Receiver interface {
	Arrived(at float64)
}

// slot is one half of an unmatched rendezvous: a receiver waiting for its
// message or, with no receiver, a message that arrived at `at` before it.
type slot struct {
	at       float64
	receiver Receiver
}

// message is one send in flight, and its own delivery event.
type message struct {
	net *Network
	key MsgKey
}

// HandleEvent delivers the message at its arrival time.
func (m *message) HandleEvent(_ sim.EventKind, at float64) { m.net.deliver(m.key, at) }

// New builds a network on the engine with the given one-way latency
// (seconds) and bandwidth (bytes/s).
func New(engine *sim.Engine, latency, bandwidth float64) *Network {
	if latency < 0 || bandwidth <= 0 {
		panic("simnet: latency must be >= 0 and bandwidth > 0")
	}
	return &Network{
		engine:    engine,
		Latency:   latency,
		Bandwidth: bandwidth,
		inbox:     make(map[MsgKey]*slot),
	}
}

// Send transmits `bytes` from key.From to key.To; the message is delivered
// (and any waiting receiver completed) after latency + bytes/bandwidth.
// Each key must be sent at most once per Recv.
func (n *Network) Send(key MsgKey, bytes float64) {
	n.Sent++
	// An absolute time, summed in this order: fingerprints depend on the
	// rounding.
	n.engine.AtEvent(n.engine.Now()+n.Latency+bytes/n.Bandwidth, &message{net: n, key: key}, 0)
}

// deliver matches an arriving message with its receiver, or parks it.
func (n *Network) deliver(key MsgKey, at float64) {
	s := n.inbox[key]
	if s == nil {
		n.inbox[key] = &slot{at: at}
		return
	}
	if s.receiver == nil {
		panic(fmt.Sprintf("simnet: duplicate send for %+v", key))
	}
	n.Delivered++
	delete(n.inbox, key)
	s.receiver.Arrived(at)
}

// Recv registers the receiver of the message key. If the message already
// arrived, the receiver is told immediately (same virtual time) with the
// arrival time; otherwise at delivery time. Each key accepts exactly one
// receiver.
func (n *Network) Recv(key MsgKey, r Receiver) {
	s := n.inbox[key]
	if s == nil {
		n.inbox[key] = &slot{receiver: r}
		return
	}
	if s.receiver != nil {
		panic(fmt.Sprintf("simnet: duplicate receiver for %+v", key))
	}
	n.Delivered++
	delete(n.inbox, key)
	r.Arrived(s.at)
}
