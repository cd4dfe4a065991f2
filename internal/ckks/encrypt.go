package ckks

import (
	"xehe/internal/poly"
)

// Ciphertext is a tuple of ring elements (usually 2; 3 right after a
// multiplication before relinearization), in NTT form, with its scale
// and level.
type Ciphertext struct {
	Value []*poly.Poly
	Scale float64
	Level int
}

// Degree returns len(Value)-1 (1 for a fresh ciphertext).
func (ct *Ciphertext) Degree() int { return len(ct.Value) - 1 }

// Clone deep-copies the ciphertext.
func (ct *Ciphertext) Clone() *Ciphertext {
	v := make([]*poly.Poly, len(ct.Value))
	for i := range v {
		v[i] = ct.Value[i].Clone()
	}
	return &Ciphertext{Value: v, Scale: ct.Scale, Level: ct.Level}
}

// Encryptor encrypts plaintexts under a public key:
// c = (v·pk.B + m + e0, v·pk.A + e1)  (Section II-A Encrypt).
type Encryptor struct {
	params  *Parameters
	pk      *PublicKey
	sampler *Sampler
}

// NewEncryptor creates an encryptor.
func NewEncryptor(params *Parameters, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: NewSampler(seed)}
}

// Encrypt produces a fresh degree-1 ciphertext at the plaintext level.
func (enc *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	params := enc.params
	level := pt.Level
	moduli := params.ModuliAt(level)
	tbls := params.TablesAt(level)
	n := params.N

	v := enc.sampler.TernaryPoly(n, moduli)
	poly.NTT(v, tbls)
	e0 := enc.sampler.GaussianPoly(n, moduli)
	poly.NTT(e0, tbls)
	e1 := enc.sampler.GaussianPoly(n, moduli)
	poly.NTT(e1, tbls)

	c0 := poly.New(n, level+1)
	c0.IsNTT = true
	poly.MulInto(c0, v, chainPart(enc.pk.B, level+1), moduli)
	poly.AddInto(c0, c0, e0, moduli)
	poly.AddInto(c0, c0, pt.Poly, moduli)

	c1 := poly.New(n, level+1)
	c1.IsNTT = true
	poly.MulInto(c1, v, chainPart(enc.pk.A, level+1), moduli)
	poly.AddInto(c1, c1, e1, moduli)

	return &Ciphertext{Value: []*poly.Poly{c0, c1}, Scale: pt.Scale, Level: level}
}

// Decryptor recovers plaintexts with the secret key:
// m' = c0 + c1·s (+ c2·s² for unrelinearized ciphertexts).
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor creates a decryptor.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt evaluates the ciphertext polynomial at the secret key.
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	params := dec.params
	level := ct.Level
	moduli := params.ModuliAt(level)

	sk := chainPart(dec.sk.Value, level+1)
	acc := ct.Value[len(ct.Value)-1].Clone()
	for i := len(ct.Value) - 2; i >= 0; i-- {
		poly.MulInto(acc, acc, sk, moduli)
		poly.AddInto(acc, acc, ct.Value[i], moduli)
	}
	return &Plaintext{Poly: acc, Scale: ct.Scale, Level: level}
}
