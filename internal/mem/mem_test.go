package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	if m.Read8(0x1000) != 0 {
		t.Error("fresh memory not zero")
	}
	m.Write8(0x1000, 0xAB)
	if m.Read8(0x1000) != 0xAB {
		t.Error("write/read byte failed on zero value")
	}
}

func TestWidths(t *testing.T) {
	m := New()
	m.Write32(0x100, 0xDEADBEEF)
	if got := m.Read32(0x100); got != 0xDEADBEEF {
		t.Errorf("Read32 = %#x", got)
	}
	// Little-endian byte order.
	if m.Read8(0x100) != 0xEF || m.Read8(0x103) != 0xDE {
		t.Error("not little endian")
	}
	m.Write16(0x200, 0x1234)
	if m.Read16(0x200) != 0x1234 {
		t.Error("Read16 failed")
	}
	m.Write64(0x300, 0x0123456789ABCDEF)
	if m.Read64(0x300) != 0x0123456789ABCDEF {
		t.Error("Read64 failed")
	}
	if m.Read32(0x300) != 0x89ABCDEF {
		t.Error("Read64 low half wrong")
	}
}

func TestCrossPageAccesses(t *testing.T) {
	m := New()
	// Straddle the page boundary at 0x1000.
	for _, addr := range []uint32{0xFFD, 0xFFE, 0xFFF} {
		m.Write32(addr, 0xCAFEBABE)
		if got := m.Read32(addr); got != 0xCAFEBABE {
			t.Errorf("cross-page Read32(%#x) = %#x", addr, got)
		}
	}
	m.Write64(0xFFC, 0x1122334455667788)
	if got := m.Read64(0xFFC); got != 0x1122334455667788 {
		t.Errorf("cross-page Read64 = %#x", got)
	}
	m.Write16(0xFFF, 0xBEEF)
	if got := m.Read16(0xFFF); got != 0xBEEF {
		t.Errorf("cross-page Read16 = %#x", got)
	}
}

func TestBulk(t *testing.T) {
	m := New()
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	m.WriteBytes(0xFF0, data) // crosses several pages
	if got := m.ReadBytes(0xFF0, len(data)); !bytes.Equal(got, data) {
		t.Error("bulk round trip failed")
	}
	// Reading unmapped memory returns zeros.
	if got := m.ReadBytes(0x9000000, 16); !bytes.Equal(got, make([]byte, 16)) {
		t.Error("unmapped read not zero")
	}
}

func TestCString(t *testing.T) {
	m := New()
	m.WriteBytes(0x2000, []byte("hello\x00world"))
	if got := m.ReadCString(0x2000, 64); got != "hello" {
		t.Errorf("ReadCString = %q", got)
	}
	if got := m.ReadCString(0x2000, 3); got != "hel" {
		t.Errorf("ReadCString with max = %q", got)
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.Footprint() != 0 {
		t.Error("fresh footprint nonzero")
	}
	m.Write8(0, 1)
	m.Write8(1<<PageBits, 1)
	m.Write8(1<<PageBits+5, 1) // same page
	if m.PagesTouched() != 2 {
		t.Errorf("PagesTouched = %d, want 2", m.PagesTouched())
	}
	if m.Footprint() != 2<<PageBits {
		t.Errorf("Footprint = %d", m.Footprint())
	}
	// Reads of unmapped addresses do not allocate.
	_ = m.Read32(0x5000000)
	if m.PagesTouched() != 2 {
		t.Error("read allocated a page")
	}
}

// TestPageTableEdges: pages on either side of a directory boundary, at the
// bottom and the top of the address space, are distinct pages, and a read
// inside a table that exists but of a page that does not allocates
// nothing.
func TestPageTableEdges(t *testing.T) {
	var m Memory
	edge := uint32(tableSize) << PageBits // the first page of directory entry 1
	addrs := []uint32{0, edge - 4, edge, 0xFFFFFFFC}
	for i, a := range addrs {
		m.Write32(a, uint32(i+1))
	}
	for i, a := range addrs {
		if got := m.Read32(a); got != uint32(i+1) {
			t.Errorf("Read32(%#x) = %d, want %d", a, got, i+1)
		}
	}
	if m.PagesTouched() != len(addrs) {
		t.Errorf("PagesTouched = %d, want %d", m.PagesTouched(), len(addrs))
	}
	if m.Read32(edge+1<<PageBits) != 0 || m.Read32(0xFFFFE000) != 0 || m.PagesTouched() != len(addrs) {
		t.Error("a read of an untouched page in a touched table allocated or read nonzero")
	}
}

// Property: a 32-bit write followed by a read at the same address returns
// the written value, at any address including page straddles.
func TestWriteReadProperty(t *testing.T) {
	m := New()
	f := func(addr, v uint32) bool {
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: byte-wise assembly agrees with word reads (little endian).
func TestEndiannessProperty(t *testing.T) {
	m := New()
	f := func(addr, v uint32) bool {
		m.Write32(addr, v)
		got := uint32(m.Read8(addr)) |
			uint32(m.Read8(addr+1))<<8 |
			uint32(m.Read8(addr+2))<<16 |
			uint32(m.Read8(addr+3))<<24
		return got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
