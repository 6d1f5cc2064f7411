// Package msg defines the coherence message vocabulary exchanged by every
// controller in the system, across both protocol domains:
//
//   - the cluster-local domain (core caches <-> the C3 controller), spoken
//     in one of the MESI-family dialects or RCC, and
//   - the global domain (C3 <-> the CXL device coherency engine, or C3 <->
//     the hierarchical-MESI directory used as the paper's baseline).
//
// A single opcode space keeps tracing, the model checker, and the
// generator's translation tables simple; which controller legally receives
// which opcodes is enforced by the per-controller FSMs.
package msg

import (
	"fmt"

	"c3/internal/mem"
)

// NodeID identifies a network endpoint (an L1, a C3 instance, the global
// directory). Cores are not network endpoints; they talk to their L1
// directly.
type NodeID int

// None is the zero NodeID used when a field is unused.
const None NodeID = -1

// Type is a coherence message opcode.
type Type uint8

// Cluster-local request/response opcodes (L1 <-> C3 local side).
// The hub-style flows route data through the C3 LLC slice; see DESIGN.md.
const (
	TInvalid Type = iota

	// L1 -> local directory (C3) requests.
	GetS       // read, acquire shareable copy
	GetM       // write, acquire exclusive ownership
	GetV       // RCC: fetch a valid copy, no sharer tracking
	PutS       // evict shared copy
	PutE       // evict exclusive clean copy
	PutM       // evict modified copy (carries data)
	PutO       // MOESI: evict owned dirty copy (carries data)
	WrThrough  // RCC: flush one dirty line at a release (carries data)
	SyncRel    // RCC: store-release marker after dirty flushes
	SyncAcq    // RCC: load-acquire marker after self-invalidation
	AtomicAdd  // RCC: fetch-and-add performed at the shared cache (Val)
	AtomicXchg // RCC: exchange performed at the shared cache (Val)

	// Local directory (C3) -> L1.
	DataS      // grant shared (carries data)
	DataE      // grant exclusive clean (carries data)
	DataM      // grant modified/ownership (carries data)
	DataV      // RCC: valid copy (carries data)
	Inv        // invalidate your copy
	SnpData    // send data, downgrade (conceptual load into the cluster)
	SnpInv     // send data if dirty, invalidate (conceptual store)
	PutAck     // eviction acknowledged
	SyncAck    // RCC: release/acquire globally complete
	AtomicResp // RCC: atomic result (Val carries the old value)

	// L1 -> local directory responses.
	InvAck     // invalidation done (had no dirty data)
	SnpRspData // snoop response carrying data (Dirty flag says if modified)
	SnpRspInv  // snoop-invalidate response (Data non-nil if was dirty)

	// Global domain, CXL.mem (C3 <-> DCOH). M2S = master(host)-to-subordinate.
	MemRdA     // M2S: read + acquire exclusive ownership (MESI GetM)
	MemRdS     // M2S: read + acquire shareable copy     (MESI GetS)
	MemWrI     // M2S: writeback, do not retain copy     (carries data)
	MemWrS     // M2S: writeback, retain current copy    (carries data)
	BIConflict // M2S: conflict-resolution handshake request

	// S2M messages (DCOH -> C3).
	CmpS          // completion: shareable copy granted (carries data)
	CmpE          // completion: exclusive clean granted (carries data)
	CmpM          // completion: exclusive ownership granted (carries data)
	CmpWr         // completion of a MemWr*
	BISnpInv      // device-initiated: give up your copy (Fwd-GetM equivalent)
	BISnpData     // device-initiated: share your copy   (Fwd-GetS equivalent)
	BIConflictAck // handshake reply; FIFO with Cmp* on the response channel

	// C3 -> DCOH snoop responses.
	BISnpRspI // invalidated; Data non-nil if the line was dirty
	BISnpRspS // downgraded to shared; Data non-nil if the line was dirty

	// Global domain, hierarchical MESI baseline (C3 <-> HMESI directory).
	// 3-hop flows with peer-to-peer data transfer between C3 instances;
	// the directory pipelines same-line requests (non-blocking).
	GGetS     // request shared
	GGetM     // request ownership
	GPutS     // evict shared
	GPutM     // evict modified (carries data)
	GPutE     // evict exclusive clean
	GFwdGetS  // dir -> owner: send data to Req, downgrade
	GFwdGetM  // dir -> owner: send data to Req, invalidate
	GInv      // dir -> sharer: invalidate, ack to Req
	GInvAck   // sharer -> requestor
	GData     // dir -> requestor: data from memory (Acks = #invals to await)
	GDataE    // dir -> requestor: data, exclusive clean
	GDataM    // owner/dir -> requestor: data with ownership
	GDataS    // owner -> requestor: data, shared (owner kept a copy)
	GPutAck   // dir -> evictor
	GCopyBack // owner -> dir: data copy accompanying a GFwdGetS downgrade

	numTypes
)

var typeNames = [...]string{
	TInvalid: "Invalid",
	GetS:     "GetS", GetM: "GetM", GetV: "GetV",
	PutS: "PutS", PutE: "PutE", PutM: "PutM", PutO: "PutO",
	WrThrough: "WrThrough", SyncRel: "SyncRel", SyncAcq: "SyncAcq",
	AtomicAdd: "AtomicAdd", AtomicXchg: "AtomicXchg",
	DataS: "DataS", DataE: "DataE", DataM: "DataM", DataV: "DataV",
	Inv: "Inv", SnpData: "SnpData", SnpInv: "SnpInv",
	PutAck: "PutAck", SyncAck: "SyncAck", AtomicResp: "AtomicResp",
	InvAck: "InvAck", SnpRspData: "SnpRspData", SnpRspInv: "SnpRspInv",
	MemRdA: "MemRd,A", MemRdS: "MemRd,S", MemWrI: "MemWr,I", MemWrS: "MemWr,S",
	BIConflict: "BIConflict",
	CmpS:       "Cmp-S", CmpE: "Cmp-E", CmpM: "Cmp-M", CmpWr: "Cmp-Wr",
	BISnpInv: "BISnpInv", BISnpData: "BISnpData", BIConflictAck: "BIConflictAck",
	BISnpRspI: "BISnpRsp-I", BISnpRspS: "BISnpRsp-S",
	GGetS: "GGetS", GGetM: "GGetM", GPutS: "GPutS", GPutM: "GPutM", GPutE: "GPutE",
	GFwdGetS: "GFwdGetS", GFwdGetM: "GFwdGetM", GInv: "GInv", GInvAck: "GInvAck",
	GData: "GData", GDataE: "GDataE", GDataM: "GDataM", GDataS: "GDataS",
	GPutAck: "GPutAck", GCopyBack: "GCopyBack",
}

func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// NumTypes is the number of defined opcodes (for table sizing).
const NumTypes = int(numTypes)

// VNet is a virtual network. Separating requests, responses, and snoops
// avoids protocol deadlock; it also carries the CXL ordering rule that
// matters for the conflict handshake: the response channel is FIFO, so
// BIConflictAck can never be reordered with a completion, while request
// and snoop channels may reorder (they model CXL's switched fabric).
type VNet uint8

const (
	VReq VNet = iota // requests (may reorder on the global fabric)
	VRsp             // responses/completions (always ordered)
	VSnp             // snoops/forwards (may reorder on the global fabric)
	NumVNets
)

func (v VNet) String() string {
	switch v {
	case VReq:
		return "req"
	case VRsp:
		return "rsp"
	case VSnp:
		return "snp"
	}
	return fmt.Sprintf("VNet(%d)", uint8(v))
}

// Msg is one coherence message. Msgs are passed by pointer and must not
// be mutated after Send; Data points at an immutable snapshot.
//
// The one-byte fields come first, packed into a single word, so a Msg is
// 88 bytes and allocates from the 96-byte size class (interleaved with
// the 8-byte fields it took 120 bytes, a 128-byte allocation). Messages
// are the largest share of the simulator's per-event garbage.
type Msg struct {
	Type Type
	VNet VNet
	// Dirty marks the payload as modified relative to memory.
	Dirty bool
	// Poisoned marks data delivered by forced completion after the shim
	// exhausted its retries — the CXL poison analogue: the transaction
	// completes rather than hangs, but the payload is untrustworthy and
	// the line is recorded in the injector's poison set.
	Poisoned bool
	// Mask flags the dirty words of a WrThrough payload (RCC merges at
	// word granularity so concurrent writers to distinct words of a line
	// do not lose updates).
	Mask uint8
	// Acq/Rel mark acquire loads and release stores for self-invalidating
	// (RCC) caches.
	Acq, Rel bool

	Addr mem.LineAddr
	Src  NodeID
	Dst  NodeID

	// Data carries a line payload for data-bearing opcodes; nil otherwise.
	Data *mem.Data

	// Req is the original requestor for 3-hop forwards (GFwd*, GInv).
	Req NodeID
	// Acks is the number of GInvAcks the requestor must collect (GData),
	// or similar small counts.
	Acks int
	// Val carries a scalar for atomics (operand / old value).
	Val uint64
	// Word is the line word index an atomic operates on.
	Word int

	// Serial is a unique id assigned at send time, for tracing.
	Serial uint64

	// Seq is the link-layer sequence number stamped by the network's
	// reliable-delivery shim on faulty cross-cluster links (0 when the
	// link is perfect). Receivers dedup and reorder by it; it is not
	// protocol-visible.
	Seq uint64
}

// WithData returns a copy of d suitable for attaching to a message.
func WithData(d mem.Data) *mem.Data { return &d }

// Clone returns a deep copy of the message, including a private copy of
// the data payload, for model-checker state snapshots (a queued message
// must not share its payload with the snapshot it was cloned from).
func (m *Msg) Clone() *Msg {
	n := *m
	if m.Data != nil {
		d := *m.Data
		n.Data = &d
	}
	return &n
}

// ControlBytes and header sizes approximate CXL flit accounting: a
// data-bearing message is a header plus the 64 B line.
const (
	HeaderBytes = 16
)

// Size returns the message size in bytes for bandwidth modelling.
func (m *Msg) Size() int {
	if m.Data != nil {
		return HeaderBytes + mem.LineBytes
	}
	return HeaderBytes
}

func (m *Msg) String() string {
	s := fmt.Sprintf("%s %s %d->%d [%s]", m.Type, m.Addr, m.Src, m.Dst, m.VNet)
	if m.Data != nil {
		s += fmt.Sprintf(" data=%v dirty=%v", *m.Data, m.Dirty)
	}
	if m.Req != 0 && m.Req != None {
		s += fmt.Sprintf(" req=%d", m.Req)
	}
	if m.Acks != 0 {
		s += fmt.Sprintf(" acks=%d", m.Acks)
	}
	if m.Poisoned {
		s += " POISONED"
	}
	return s
}
