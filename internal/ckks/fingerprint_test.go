package ckks

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"xehe/internal/poly"
	"xehe/internal/race"
)

// clientFingerprint hashes everything the client side makes from fixed
// seeds: the secret, public, relinearization and Galois keys, one
// encryption and the decode of its decryption. Any change to a sampled
// value, to the order the samplers are drawn in, or to a transform's
// output changes it.
func clientFingerprint(params *Parameters) string {
	h := sha256.New()
	kg := NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	gk := kg.GenGaloisKey(sk, params.GaloisElement(1))
	hashPolys(h, sk.Value, pk.B, pk.A)
	hashPolys(h, rlk.B...)
	hashPolys(h, rlk.A...)
	hashPolys(h, gk.B...)
	hashPolys(h, gk.A...)

	enc := NewEncoder(params)
	pt := enc.Encode(randomValues(params.Slots(), 3), params.Scale, params.MaxLevel())
	ct := NewEncryptor(params, pk, 2).Encrypt(pt)
	hashPolys(h, ct.Value...)
	var buf []byte
	for _, v := range enc.Decode(NewDecryptor(params, sk).Decrypt(ct)) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(v)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(v)))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

func hashPolys(h hash.Hash, ps ...*poly.Poly) {
	var buf []byte
	for _, p := range ps {
		for _, row := range p.Coeffs {
			buf = buf[:0]
			for _, c := range row {
				buf = binary.LittleEndian.AppendUint64(buf, c)
			}
			h.Write(buf)
		}
	}
}

// TestClientBitIdentity pins keygen, encryption and decoding to the
// bits they had when the client ran radix-2 transforms on one
// goroutine: the values were recorded then, at both parameter sets,
// and must come out the same however many goroutines the host
// transforms and products are spread over. Drawing e before a in
// genSwitchKey, or reducing uniform samples by anything but the exact
// remainder, fails here.
func TestClientBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params func() *Parameters
		want   string
	}{
		{"demo", TestParameters, "486f691efc641af3f86256300b888699b2551febf8aaae9cc9a3586e6953e318"},
		{"bench", BenchParameters, "100bf51cc5425fbdb94d2c611992bd751e29969ad74ea96e20b723d5703eacd0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if race.Enabled && tc.name == "bench" {
				t.Skip("the demo size covers the concurrent paths under the race detector")
			}
			params := tc.params()
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				got := clientFingerprint(params)
				runtime.GOMAXPROCS(prev)
				if got != tc.want {
					t.Errorf("GOMAXPROCS %d: client fingerprint %s, want %s", procs, got, tc.want)
				}
			}
		})
	}
}
