package msg

import (
	"strings"
	"testing"
	"unsafe"

	"c3/internal/mem"
)

func TestTypeStrings(t *testing.T) {
	// Every defined opcode must have a name (catches enum/name drift).
	for ty := Type(1); int(ty) < NumTypes; ty++ {
		s := ty.String()
		if strings.HasPrefix(s, "Type(") {
			t.Errorf("opcode %d has no name", ty)
		}
	}
	// Table I mnemonics.
	if MemRdA.String() != "MemRd,A" || MemRdS.String() != "MemRd,S" ||
		BISnpInv.String() != "BISnpInv" || BIConflictAck.String() != "BIConflictAck" {
		t.Fatal("CXL mnemonic drift")
	}
	if Type(200).String() != "Type(200)" {
		t.Fatal("unknown opcode formatting")
	}
}

func TestVNetStrings(t *testing.T) {
	if VReq.String() != "req" || VRsp.String() != "rsp" || VSnp.String() != "snp" {
		t.Fatal("vnet names")
	}
	if VNet(9).String() != "VNet(9)" {
		t.Fatal("unknown vnet formatting")
	}
}

func TestSize(t *testing.T) {
	m := &Msg{Type: GetS}
	if m.Size() != HeaderBytes {
		t.Fatalf("control size %d", m.Size())
	}
	var d mem.Data
	m.Data = &d
	if m.Size() != HeaderBytes+mem.LineBytes {
		t.Fatalf("data size %d", m.Size())
	}
}

// TestMsgPacked pins the field layout that keeps a Msg in the 96-byte
// allocation class (see Msg).
func TestMsgPacked(t *testing.T) {
	if n := unsafe.Sizeof(Msg{}); n > 96 {
		t.Fatalf("Msg is %d bytes, want <= 96: keep the one-byte fields together", n)
	}
}

func TestString(t *testing.T) {
	var d mem.Data
	d.SetWord(0, 7)
	m := &Msg{Type: GDataM, Addr: 0x1000, Src: 2, Dst: 3, VNet: VRsp,
		Data: &d, Dirty: true, Req: 9, Acks: 2}
	s := m.String()
	for _, want := range []string{"GDataM", "0x1000", "2->3", "rsp", "dirty=true", "req=9", "acks=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

func TestWithData(t *testing.T) {
	var d mem.Data
	d.SetWord(1, 4)
	p := WithData(d)
	d.SetWord(1, 9) // the snapshot must not alias
	if p.Word(1) != 4 {
		t.Fatal("WithData must copy")
	}
}
