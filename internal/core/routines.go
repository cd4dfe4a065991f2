package core

import "xehe/internal/ckks"

// The single-ciphertext API: each method is its *Batch routine over a
// batch of one (evaluator.go), so the serial evaluator, the paper's
// figures and the scheduler's coalesced batches run one implementation.

func one(ct *Ciphertext) []*Ciphertext { return []*Ciphertext{ct} }

// Add returns a + b on device.
func (c *Context) Add(a, b *Ciphertext) *Ciphertext {
	return c.AddBatch(one(a), one(b))[0]
}

// ModSwitch drops the last RNS component.
func (c *Context) ModSwitch(ct *Ciphertext) *Ciphertext {
	return c.ModSwitchBatch(one(ct))[0]
}

// The five HE evaluation routines benchmarked in Figs. 5, 16 and 18.
// Each frees its intermediate device ciphertexts through the memory
// cache, so the cache ablation (Fig. 19) sees realistic reuse.

// MulLin multiplies two ciphertexts and relinearizes the result.
func (c *Context) MulLin(a, b *Ciphertext, rlk *ckks.RelinKey) *Ciphertext {
	return c.MulLinBatch(one(a), one(b), rlk)[0]
}

// MulLinRS multiplies, relinearizes and rescales.
func (c *Context) MulLinRS(a, b *Ciphertext, rlk *ckks.RelinKey) *Ciphertext {
	return c.MulLinRSBatch(one(a), one(b), rlk)[0]
}

// SqrLinRS squares a ciphertext, relinearizes and rescales.
func (c *Context) SqrLinRS(a *Ciphertext, rlk *ckks.RelinKey) *Ciphertext {
	return c.SqrLinRSBatch(one(a), rlk)[0]
}

// MulLinRSModSwAdd multiplies, relinearizes, rescales, switches the
// second operand down one level and adds it (Section IV-C).
func (c *Context) MulLinRSModSwAdd(a, b, addend *Ciphertext, rlk *ckks.RelinKey) *Ciphertext {
	rs := c.MulLinRS(a, b, rlk)
	sw := c.ModSwitch(addend)
	out := c.Add(rs, sw)
	c.Free(rs)
	c.Free(sw)
	return out
}

// Rotate cyclically rotates the plaintext vector by k slots using the
// Galois key (Fig. 5's "Rotate").
func (c *Context) Rotate(a *Ciphertext, k int, gk *ckks.GaloisKey) *Ciphertext {
	return c.RotateBatch(one(a), k, gk)[0]
}

// RoutineNames lists the routines in the order the paper plots them.
var RoutineNames = []string{"MulLin", "MulLinRS", "SqrLinRS", "MulLinRSModSwAdd", "Rotate"}
