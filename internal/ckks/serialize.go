package ckks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"xehe/internal/poly"
)

// Wire format for ciphertexts and plaintexts: a fixed header (magic,
// version, degree+1, level, scale, N, NTT flags) followed by raw
// little-endian residue words. This is what a client would ship to the
// GPU server in the Fig. 1 deployment.

const (
	wireMagic   = 0x58454845 // "XEHE"
	wireVersion = 1
)

var (
	// ErrBadMagic reports a stream that is not a serialized ciphertext.
	ErrBadMagic = errors.New("ckks: bad magic in serialized ciphertext")
	// ErrBadVersion reports an unsupported wire version.
	ErrBadVersion = errors.New("ckks: unsupported serialization version")
)

// Serialize writes the ciphertext to w in the wire format.
func (ct *Ciphertext) Serialize(w io.Writer) error {
	if len(ct.Value) == 0 {
		return errors.New("ckks: cannot serialize an empty ciphertext")
	}
	n := ct.Value[0].N
	hdr := []uint64{
		wireMagic, wireVersion,
		uint64(len(ct.Value)), uint64(ct.Level), uint64(n),
		math.Float64bits(ct.Scale),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, p := range ct.Value {
		ntt := uint64(0)
		if p.IsNTT {
			ntt = 1
		}
		if err := binary.Write(w, binary.LittleEndian, ntt); err != nil {
			return err
		}
		for _, comp := range p.Coeffs {
			if err := binary.Write(w, binary.LittleEndian, comp); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadCiphertext deserializes a ciphertext written by Serialize,
// validating the header against the parameters.
func ReadCiphertext(r io.Reader, params *Parameters) (*Ciphertext, error) {
	var hdr [6]uint64
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	if hdr[0] != wireMagic {
		return nil, ErrBadMagic
	}
	if hdr[1] != wireVersion {
		return nil, ErrBadVersion
	}
	polys := int(hdr[2])
	level := int(hdr[3])
	n := int(hdr[4])
	if n != params.N {
		return nil, fmt.Errorf("ckks: ring degree %d does not match parameters (%d)", n, params.N)
	}
	if level < 0 || level > params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d out of range", level)
	}
	if polys < 2 || polys > 3 {
		return nil, fmt.Errorf("ckks: unsupported ciphertext size %d", polys)
	}
	scale := math.Float64frombits(hdr[5])
	if !(scale > 0) || math.IsInf(scale, 1) { // !(> 0) also catches NaN
		return nil, fmt.Errorf("ckks: scale %v is not a positive finite number", scale)
	}
	ct := &Ciphertext{Scale: scale, Level: level}
	for i := 0; i < polys; i++ {
		var isNTT uint64
		if err := binary.Read(r, binary.LittleEndian, &isNTT); err != nil {
			return nil, err
		}
		if isNTT > 1 {
			return nil, fmt.Errorf("ckks: NTT flag %d of component %d is not 0 or 1", isNTT, i)
		}
		p := poly.New(n, level+1)
		p.IsNTT = isNTT == 1
		for _, comp := range p.Coeffs {
			if err := binary.Read(r, binary.LittleEndian, comp); err != nil {
				return nil, err
			}
		}
		// Validate residues against the moduli (defensive: corrupt or
		// hostile streams must not inject out-of-range values into the
		// lazy-reduction kernels).
		for ci, comp := range p.Coeffs {
			q := params.Basis.Moduli[ci].Value
			for _, v := range comp {
				if v >= q {
					return nil, fmt.Errorf("ckks: residue out of range for modulus %d", ci)
				}
			}
		}
		ct.Value = append(ct.Value, p)
	}
	return ct, nil
}

// SerializedSize returns the exact byte size Serialize will produce.
func (ct *Ciphertext) SerializedSize() int {
	n := ct.Value[0].N
	size := 6 * 8 // header
	for _, p := range ct.Value {
		size += 8 + 8*n*len(p.Coeffs)
	}
	return size
}
