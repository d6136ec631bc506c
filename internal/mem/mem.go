// Package mem provides the sparse, paged 32-bit byte-addressable memory used
// by the functional emulator and the timing simulator. All multi-byte
// accesses are little-endian. Pages are allocated lazily on first touch,
// which also gives a cheap total-footprint metric (the "Mem Usage" column of
// the paper's Tables 3 and 4).
package mem

import "encoding/binary"

// PageBits is the log2 of the page size used for the sparse backing store.
const PageBits = 12

const (
	pageSize = 1 << PageBits
	pageMask = pageSize - 1
)

// The page table has two levels: a directory of dirSize entries, indexed
// by the high bits of the page number, each naming a table of tableSize
// page pointers, indexed by the low bits.
const (
	tableBits = (32 - PageBits) / 2
	tableSize = 1 << tableBits
	dirSize   = 1 << (32 - PageBits - tableBits)
)

type pageTable [tableSize]*[pageSize]byte

// Memory is a sparse 32-bit address space. The zero value is ready to use.
type Memory struct {
	// dir is the page table's directory; a table is allocated on the
	// first touch of any page it covers, a page on its own first touch.
	dir   [dirSize]*pageTable
	pages int // pages allocated
	// One-entry lookup cache: accesses cluster heavily within a page
	// (stack frames, array walks), so remembering the last page touched
	// turns most walks into a compare. lastPage==nil means invalid.
	lastPN   uint32
	lastPage *[pageSize]byte
}

// New returns an empty memory.
func New() *Memory {
	return new(Memory)
}

func (m *Memory) page(addr uint32) *[pageSize]byte {
	pn := addr >> PageBits
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	t := m.dir[pn>>tableBits]
	if t == nil {
		t = new(pageTable)
		m.dir[pn>>tableBits] = t
	}
	p := t[pn&(tableSize-1)]
	if p == nil {
		p = new([pageSize]byte)
		t[pn&(tableSize-1)] = p
		m.pages++
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// peek returns the page if present, without allocating.
func (m *Memory) peek(addr uint32) *[pageSize]byte {
	pn := addr >> PageBits
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	t := m.dir[pn>>tableBits]
	if t == nil {
		return nil
	}
	p := t[pn&(tableSize-1)]
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// Footprint returns the number of bytes of memory touched so far, rounded up
// to whole pages.
func (m *Memory) Footprint() uint64 {
	return uint64(m.pages) * pageSize
}

// PagesTouched returns the number of distinct pages allocated.
func (m *Memory) PagesTouched() int { return m.pages }

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr uint32) byte {
	if p := m.peek(addr); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// Write8 stores b at addr.
func (m *Memory) Write8(addr uint32, b byte) {
	m.page(addr)[addr&pageMask] = b
}

// Read16 returns the little-endian 16-bit value at addr.
func (m *Memory) Read16(addr uint32) uint16 {
	if addr&pageMask <= pageSize-2 {
		if p := m.peek(addr); p != nil {
			return binary.LittleEndian.Uint16(p[addr&pageMask:])
		}
		return 0
	}
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 stores v little-endian at addr.
func (m *Memory) Write16(addr uint32, v uint16) {
	if addr&pageMask <= pageSize-2 {
		binary.LittleEndian.PutUint16(m.page(addr)[addr&pageMask:], v)
		return
	}
	m.Write8(addr, byte(v))
	m.Write8(addr+1, byte(v>>8))
}

// Read32 returns the little-endian 32-bit value at addr.
func (m *Memory) Read32(addr uint32) uint32 {
	if addr&pageMask <= pageSize-4 {
		if p := m.peek(addr); p != nil {
			return binary.LittleEndian.Uint32(p[addr&pageMask:])
		}
		return 0
	}
	return uint32(m.Read16(addr)) | uint32(m.Read16(addr+2))<<16
}

// Write32 stores v little-endian at addr.
func (m *Memory) Write32(addr uint32, v uint32) {
	if addr&pageMask <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr)[addr&pageMask:], v)
		return
	}
	m.Write16(addr, uint16(v))
	m.Write16(addr+2, uint16(v>>16))
}

// Read64 returns the little-endian 64-bit value at addr.
func (m *Memory) Read64(addr uint32) uint64 {
	if addr&pageMask <= pageSize-8 {
		if p := m.peek(addr); p != nil {
			return binary.LittleEndian.Uint64(p[addr&pageMask:])
		}
		return 0
	}
	return uint64(m.Read32(addr)) | uint64(m.Read32(addr+4))<<32
}

// Write64 stores v little-endian at addr.
func (m *Memory) Write64(addr uint32, v uint64) {
	if addr&pageMask <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.page(addr)[addr&pageMask:], v)
		return
	}
	m.Write32(addr, uint32(v))
	m.Write32(addr+4, uint32(v>>32))
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		off := (addr + uint32(i)) & pageMask
		chunk := pageSize - int(off)
		if chunk > n-i {
			chunk = n - i
		}
		if p := m.peek(addr + uint32(i)); p != nil {
			copy(out[i:i+chunk], p[off:])
		}
		i += chunk
	}
	return out
}

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for i := 0; i < len(b); {
		off := (addr + uint32(i)) & pageMask
		chunk := pageSize - int(off)
		if chunk > len(b)-i {
			chunk = len(b) - i
		}
		copy(m.page(addr + uint32(i))[off:], b[i:i+chunk])
		i += chunk
	}
}

// ReadCString reads a NUL-terminated string starting at addr, up to max
// bytes.
func (m *Memory) ReadCString(addr uint32, max int) string {
	var buf []byte
	for i := 0; i < max; i++ {
		b := m.Read8(addr + uint32(i))
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf)
}
