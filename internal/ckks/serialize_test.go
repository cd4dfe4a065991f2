package ckks

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
)

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	c := ctx(t)
	vals := randomValues(c.params.Slots(), 50)
	ct := c.encr.Encrypt(c.enc.Encode(vals, c.params.Scale, c.params.MaxLevel()))

	var buf bytes.Buffer
	if err := ct.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), ct.SerializedSize(); got != want {
		t.Fatalf("serialized size = %d, want %d", got, want)
	}
	back, err := ReadCiphertext(&buf, c.params)
	if err != nil {
		t.Fatal(err)
	}
	if back.Level != ct.Level || back.Scale != ct.Scale || len(back.Value) != len(ct.Value) {
		t.Fatal("header round trip mismatch")
	}
	got := c.enc.Decode(c.decr.Decrypt(back))
	for i := range vals {
		if cmplx.Abs(got[i]-vals[i]) > 1e-6 {
			t.Fatalf("slot %d decodes to %v after round trip", i, got[i])
		}
	}
}

func TestSerializationAtLowerLevel(t *testing.T) {
	c := ctx(t)
	vals := randomValues(8, 51)
	ct := c.eval.ModSwitch(c.encr.Encrypt(c.enc.Encode(vals, c.params.Scale, c.params.MaxLevel())))
	var buf bytes.Buffer
	if err := ct.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCiphertext(&buf, c.params)
	if err != nil {
		t.Fatal(err)
	}
	if back.Level != ct.Level {
		t.Fatalf("level = %d, want %d", back.Level, ct.Level)
	}
}

func TestDeserializationRejectsCorruption(t *testing.T) {
	c := ctx(t)
	ct := c.encr.Encrypt(c.enc.Encode(randomValues(4, 52), c.params.Scale, c.params.MaxLevel()))
	var buf bytes.Buffer
	if err := ct.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := ReadCiphertext(bytes.NewReader(bad), c.params); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), good...)
	bad[8] = 99
	if _, err := ReadCiphertext(bytes.NewReader(bad), c.params); err == nil {
		t.Error("bad version accepted")
	}
	// Out-of-range residue (set a coefficient word to all-ones).
	bad = append([]byte(nil), good...)
	off := 6*8 + 8 // header + isNTT flag, first residue word
	for i := 0; i < 8; i++ {
		bad[off+i] = 0xFF
	}
	if _, err := ReadCiphertext(bytes.NewReader(bad), c.params); err == nil {
		t.Error("out-of-range residue accepted")
	}
	// Truncated stream.
	if _, err := ReadCiphertext(bytes.NewReader(good[:len(good)/2]), c.params); err == nil {
		t.Error("truncated stream accepted")
	}
	// A scale the evaluator cannot compute with (header word 5).
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -c.params.Scale} {
		bad = append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(bad[5*8:], math.Float64bits(scale))
		if _, err := ReadCiphertext(bytes.NewReader(bad), c.params); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	// An NTT flag word other than 0/1: the first component's, right
	// after the header, and the second's, one component further on.
	comp := 8 + 8*c.params.N*(ct.Level+1)
	for i, off := range []int{6 * 8, 6*8 + comp} {
		bad = append([]byte(nil), good...)
		bad[off] = 2
		if _, err := ReadCiphertext(bytes.NewReader(bad), c.params); err == nil {
			t.Errorf("component %d: NTT flag 2 accepted", i)
		}
	}
}

// FuzzReadCiphertext feeds ReadCiphertext — the boundary where outside
// bytes become a ciphertext — arbitrary streams: it must never panic,
// and whatever it accepts must serialize back to exactly the bytes it
// consumed (so two different streams can never mean one ciphertext).
// Seeds: a valid fresh (2-component) and unrelinearized (3-component)
// ciphertext, truncations of one, and single-byte flips through the
// header and the first NTT flag.
func FuzzReadCiphertext(f *testing.F) {
	c := ctx(f)
	// Level 0 keeps the seeds (and so the mutated inputs) small.
	ct := c.encr.Encrypt(c.enc.Encode(randomValues(4, 53), c.params.Scale, c.params.MaxLevel()))
	for ct.Level > 0 {
		ct = c.eval.ModSwitch(ct)
	}
	var two, three bytes.Buffer
	if err := ct.Serialize(&two); err != nil {
		f.Fatal(err)
	}
	if err := c.eval.Mul(ct, ct).Serialize(&three); err != nil {
		f.Fatal(err)
	}
	good := two.Bytes()
	f.Add(good)
	f.Add(three.Bytes())
	for _, n := range []int{0, 7, 6 * 8, 7 * 8, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	for off := 0; off < 7*8; off += 8 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x04
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCiphertext(bytes.NewReader(data), c.params)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Serialize(&out); err != nil {
			t.Fatalf("accepted ciphertext does not serialize: %v", err)
		}
		if out.Len() != got.SerializedSize() || out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted %d bytes that do not round-trip (re-serialized to %d)", len(data), out.Len())
		}
	})
}
