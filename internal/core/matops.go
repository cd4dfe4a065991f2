package core

import (
	"xehe/internal/ckks"
)

// Operations used by the encrypted polynomial matrix-multiplication
// application (Fig. 19): ciphertext elements arrive in coefficient
// form, are transformed on the GPU, multiplied dyadically with
// accumulation into a degree-2 accumulator, and transformed back.

// NewZeroCt allocates a zeroed device ciphertext of the given degree.
func (c *Context) NewZeroCt(degree, level int, scale float64, isNTT bool) *Ciphertext {
	out := newCt(degree+1, level, scale)
	for i := range degree + 1 {
		c.fill(out, i, level+1, isNTT)
		if !c.Cfg.Analytic {
			clear(out.bufs[i].Data)
		}
	}
	return out
}

// FwdNTTCt transforms every polynomial of the ciphertext to the NTT
// domain on the GPU.
func (c *Context) FwdNTTCt(ct *Ciphertext) {
	tbls := c.Params.TablesAt(ct.CT.Level)
	for i := range ct.CT.Value {
		c.fwdNTTJobs(ct.CT.Value[i:i+1], tbls)
	}
}

// InvNTTCt transforms every polynomial back to coefficient form.
func (c *Context) InvNTTCt(ct *Ciphertext) {
	tbls := c.Params.TablesAt(ct.CT.Level)
	for i := range ct.CT.Value {
		c.invNTTJobs(ct.CT.Value[i:i+1], tbls)
	}
}

// CloneCt duplicates a device ciphertext (fresh buffers).
func (c *Context) CloneCt(ct *Ciphertext) *Ciphertext {
	out := newCt(len(ct.CT.Value), ct.CT.Level, ct.CT.Scale)
	for i, p := range ct.CT.Value {
		c.fill(out, i, p.Components(), p.IsNTT)
		if !c.Cfg.Analytic {
			copy(out.bufs[i].Data, p.Data())
		}
	}
	return out
}

// MulAcc accumulates the tensor product of two degree-1 NTT-domain
// ciphertexts into a degree-2 accumulator: acc += a ⊗ b. With the
// mad_mod optimization each of the four products costs one fused
// kernel; the baseline pays separate mul_mod and add_mod passes.
func (c *Context) MulAcc(acc, a, b *Ciphertext) {
	comps := acc.CT.Level + 1
	// Each component is a batch of one polynomial: a one-element window
	// of the ciphertext's own Value slice, so nothing is allocated.
	d, x, y := acc.CT.Value, a.CT.Value, b.CT.Value
	c.madIntoJobs(d[0:1], x[0:1], y[0:1], comps)
	c.madIntoJobs(d[1:2], x[0:1], y[1:2], comps)
	c.madIntoJobs(d[1:2], x[1:2], y[0:1], comps)
	c.madIntoJobs(d[2:3], x[1:2], y[1:2], comps)
}

// UploadCoeff uploads a host ciphertext and converts it to coefficient
// form if needed (matrix elements are stored in coefficient form, as
// serialized ciphertexts are).
func (c *Context) UploadCoeff(ct *ckks.Ciphertext) *Ciphertext {
	d := c.Upload(ct)
	if ct.Value[0].IsNTT {
		c.InvNTTCt(d)
	}
	return d
}

// CacheStats returns the memory cache's hits and misses (driver
// allocations), for the Fig. 19 ablation.
func (c *Context) CacheStats() (hits, misses int64) { return c.Cache.Stats() }
