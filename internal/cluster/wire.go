package cluster

// The binary wire protocol, cluster side. The node's lease opcodes go
// through the one wire codec in package server, with the frame's epoch
// field standing in for the X-Cluster-Epoch header; the node itself answers
// only its membership opcodes, the control ones behind the wire control
// plane's steward gate (controlToWire). The routed client (client.go)
// reaches a member's wire endpoint through server.WireClient and falls back
// to the member's server.Client, over HTTP, when the member advertises no
// wire endpoint or the wire hop fails.

import (
	"encoding/json"

	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/wire"
)

var _ wire.BatchBackend = (*Node)(nil)

// ServeWire implements wire.Backend: the node's whole API over binary
// frames.
func (n *Node) ServeWire(req *wire.Request, resp *wire.Response) { n.wire.ServeWire(req, resp) }

// ServeWireBatch implements wire.BatchBackend: the lease writes among the
// frames a connection had buffered share one durability barrier, so a
// durable member answers them after one WAL write and one fsync per
// partition journal they touched.
func (n *Node) ServeWireBatch(reqs []*wire.Request, resps []*wire.Response) {
	n.wire.ServeWireBatch(reqs, resps)
}

// serveControl answers the membership opcodes the lease API does not
// define; false for any other opcode.
func (n *Node) serveControl(req *wire.Request, resp *wire.Response) bool {
	switch req.Op {
	case wire.OpMembers:
		server.WriteBlob(resp, n.Table())

	case wire.OpJoin:
		// The wire control plane is steward-direct: no HTTP-style proxying.
		// A non-steward answers 421 and the client tries the steward (its
		// identity rides in the members blob).
		var jr JoinRequest
		if err := json.Unmarshal(req.Blob, &jr); err != nil || jr.Addr == "" {
			resp.Status, resp.Code = wire.StatusBadRequest, wire.CodeBadRequest
			break
		}
		n.controlToWire(resp, func() (int, any) { return n.admitJoin(jr) })

	case wire.OpDrain:
		var dr DrainRequest
		if err := json.Unmarshal(req.Blob, &dr); err != nil {
			resp.Status, resp.Code = wire.StatusBadRequest, wire.CodeBadRequest
			break
		}
		n.controlToWire(resp, func() (int, any) { return n.applyDrain(dr) })

	case wire.OpRebalance:
		n.controlToWire(resp, func() (int, any) { return 200, n.rebalanceOnce("wire") })

	default:
		return false
	}
	return true
}

// controlToWire runs a steward-only membership operation and maps its
// HTTP-shaped (status, body) reply onto a wire frame. Non-stewards answer
// 421/not_owner — the wire control plane does not proxy; the client reads
// the steward's identity from an OpMembers blob and redials.
func (n *Node) controlToWire(resp *wire.Response, op func() (int, any)) {
	st, ok := n.Table().Steward()
	if !ok {
		resp.Status, resp.Code = wire.StatusUnavailable, wire.CodeNoPartitions
		resp.RetryAfterMillis = n.cfg.ProbeInterval.Milliseconds()
		return
	}
	if st.ID != n.cfg.NodeID {
		resp.Status, resp.Code = wire.StatusNotOwner, wire.CodeNotOwner
		return
	}
	status, body := op()
	if status/100 != 2 {
		resp.Status, resp.Code = wire.Status(status), wire.CodeInternal
		if er, ok := body.(EpochResponse); ok {
			resp.Code = wire.ParseCode(er.Error)
		}
		return
	}
	server.WriteBlob(resp, body)
}
