// Package ctrenc implements the counter-mode memory encryption used by the
// simulated memory controller (paper §2.2.1).
//
// A cache line is never encrypted directly. Instead a one-time pad (OTP) is
// derived from the line's physical address and a per-write counter:
//
//	OTP        = AES_key(address ‖ counter)        (Eq. 1)
//	ciphertext = OTP ⊕ plaintext                   (Eq. 2)
//	plaintext  = OTP ⊕ ciphertext                  (Eq. 3)
//
// Because the pad depends on the counter, decrypting with a stale counter
// yields garbage (Eq. 4) — the failure mode that motivates
// counter-atomicity. This package performs the real AES computation (via
// the standard library) so that crash-recovery experiments genuinely fail
// when data and counter are out of sync; the modeled 40ns latency lives in
// the timing layer, not here.
package ctrenc

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"encnvm/internal/mem"
)

// blocksPerLine AES blocks (16B each) cover one 64B line.
const blocksPerLine = mem.LineBytes / aes.BlockSize

// Engine derives OTPs and encrypts/decrypts cache lines. It keeps its AES
// input block and pad as scratch fields, so it is not safe for concurrent
// use: an engine belongs to one controller (memctrl.New builds one per
// controller) or to one caller.
type Engine struct {
	block cipher.Block
	// in and pad are OTP's scratch. As locals they would escape to the
	// heap through the cipher.Block interface on every call.
	in  [aes.BlockSize]byte
	pad mem.Line
}

// New returns an engine keyed with the given 16/24/32-byte AES key.
func New(key []byte) (*Engine, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("ctrenc: %w", err)
	}
	return &Engine{block: b}, nil
}

// MustNew is New for compile-time-correct keys; it panics on error.
func MustNew(key []byte) *Engine {
	e, err := New(key)
	if err != nil {
		panic(err)
	}
	return e
}

// DefaultKey is the key used by the simulator when none is supplied. A real
// controller would provision this from a root of trust; the simulation only
// needs determinism.
var DefaultKey = []byte("encnvm-hpca-2018")

// NewDefault returns an engine keyed with DefaultKey.
func NewDefault() *Engine { return MustNew(DefaultKey) }

// OTP returns the one-time pad for the line at addr written with the given
// counter value. Each 16B AES block mixes in its own sub-address so that
// all four blocks of the pad differ.
func (e *Engine) OTP(addr mem.Addr, counter uint64) mem.Line {
	for i := 0; i < blocksPerLine; i++ {
		binary.LittleEndian.PutUint64(e.in[0:8], uint64(addr)+uint64(i*aes.BlockSize))
		binary.LittleEndian.PutUint64(e.in[8:16], counter)
		e.block.Encrypt(e.pad[i*aes.BlockSize:(i+1)*aes.BlockSize], e.in[:])
	}
	return e.pad
}

// Encrypt returns the ciphertext of plain for the line at addr under the
// given counter.
func (e *Engine) Encrypt(plain mem.Line, addr mem.Addr, counter uint64) mem.Line {
	return plain.XOR(e.OTP(addr, counter))
}

// Decrypt returns the plaintext of ct for the line at addr, assuming it was
// encrypted under the given counter. A wrong counter produces garbage, not
// an error: counter-mode encryption has no integrity check, which is
// exactly why crash recovery silently corrupts data when counter and data
// are out of sync.
func (e *Engine) Decrypt(ct mem.Line, addr mem.Addr, counter uint64) mem.Line {
	return ct.XOR(e.OTP(addr, counter))
}

// CounterZeroIsPlain: counter value 0 marks a line that has never been
// written through the encryption engine. The simulator treats such lines as
// absent rather than defining OTP(·, 0) specially; this constant documents
// the convention.
const CounterZeroIsPlain = 0

// Counters tracks the authoritative (on-chip) counter value per data line —
// the value most recently used to encrypt that line. The memory controller
// consults it on writes; the crash harness compares it against what made it
// to NVM to count out-of-sync lines.
//
// Counters are per-line monotonic: each write to a line increments that
// line's own counter by one. The (address, counter) pair stays unique —
// the address is mixed into every OTP — and per-line increments are what
// make bounded candidate-search recovery (the Osiris design) possible.
// The paper's §5.2.1 narrates a global counter; both schemes satisfy the
// counter-mode uniqueness requirement, and the total write count is still
// tracked for statistics.
type Counters struct {
	writes uint64
	byLine mem.Table[uint64]
}

// Next increments the line's counter and returns the fresh value used to
// encrypt this write.
func (c *Counters) Next(lineAddr mem.Addr) uint64 {
	c.writes++
	p := c.byLine.Ptr(lineAddr)
	*p++
	return *p
}

// Current returns the counter most recently assigned to the line, or 0 if
// the line has never been written.
func (c *Counters) Current(lineAddr mem.Addr) uint64 {
	v, _ := c.byLine.Get(lineAddr)
	return v
}

// Global returns the total number of counter increments (write count).
func (c *Counters) Global() uint64 { return c.writes }

// Lines returns the number of lines with assigned counters.
func (c *Counters) Lines() int { return c.byLine.Len() }

// Checksum computes the 16-bit plaintext integrity code persisted with a
// data line — the model of the spare ECC bits that Osiris-style counter
// recovery consults. Mixing in the address prevents a line's checksum
// matching after being replayed at another location.
func Checksum(plain mem.Line, addr mem.Addr) uint16 {
	h := uint64(addr)*0x9E3779B97F4A7C15 + 0x1234567
	for i := 0; i < mem.LineBytes; i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(plain[i:])) * 0x100000001B3
	}
	return uint16(h ^ h>>16 ^ h>>32 ^ h>>48)
}

// PackCounterLine assembles the 64B counter-region line holding the eight
// given counter values (slot i at bytes [8i, 8i+8)).
func PackCounterLine(counters [mem.CountersPerLine]uint64) mem.Line {
	var l mem.Line
	for i, v := range counters {
		binary.LittleEndian.PutUint64(l[i*mem.CounterBytes:], v)
	}
	return l
}

// UnpackCounterLine extracts the eight counter values from a counter-region
// line.
func UnpackCounterLine(l mem.Line) [mem.CountersPerLine]uint64 {
	var out [mem.CountersPerLine]uint64
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(l[i*mem.CounterBytes:])
	}
	return out
}
