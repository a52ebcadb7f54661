package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"doda/internal/rng"
)

// TestGeneratorSequencesPinned pins the first 200k interactions of every
// generative model S1 sweeps (edge-Markovian, churn, community, Zipf and
// uniform) by SHA-256, so a change to how they draw (the geometric
// skip's table, the bookkeeping order of the live and dead sets, the
// community pair inversion) cannot silently alter a seeded sequence and
// with it every sweep result and checkpoint built on one. The determinism
// tests compare one build with itself; these hashes compare builds.
// The race detector would stretch the 6M interactions past the test
// timeout, and they hold no concurrency for it to check; the race build
// runs TestGeomSkipSharedAcrossGoroutines instead.
func TestGeneratorSequencesPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sequence pins run without the race detector")
	}
	const prefix, seed = 200_000, 42
	want := map[string]string{
		"TestGeneratorSequencesPinned/edge-markovian/n=8/p-up=0.05/p-down=0.2":   "d570eda4203117e4bfa2d3d673860ac458e4637acf57e89a14cd1020d21023ac",
		"TestGeneratorSequencesPinned/edge-markovian/n=8/p-up=0.01/p-down=0.9":   "57091c8a9059cb6aeb6e0d4629d91b4d80d13d7c3cee6adc955bebc4c429ea80",
		"TestGeneratorSequencesPinned/edge-markovian/n=8/p-up=0.5/p-down=0.5":    "24181c12db0fccb9bad24f52279ebfea92751736976af6bdcd49b4eec1f67115",
		"TestGeneratorSequencesPinned/edge-markovian/n=8/p-up=0.2/p-down=0.01":   "df4478d39cdcfadc753f291d30832f4eac179fd1cb3aca81bf978748058d2037",
		"TestGeneratorSequencesPinned/churn(uniform)/n=8":                        "49cf25f4b82d4cfd599bace866cf5d6d4cc13fecaefccb81963c1dbec82bccee",
		"TestGeneratorSequencesPinned/churn(edge-markovian)/n=8":                 "7880355021334492fef31ae9976c44529aaa4e431a0fec7655eb79584d987374",
		"TestGeneratorSequencesPinned/community/n=8/communities=4/p-intra=0.9":   "1f46063deee716c88057113669bb628c7e4025f1be85c2f5671783253c50f970",
		"TestGeneratorSequencesPinned/community/n=8/communities=2/p-intra=0.5":   "43b1e63a06365df3bd01ab7486cbd4943b6905ccbe05b8b19d1e6222f4d6cca5",
		"TestGeneratorSequencesPinned/zipf/n=8/alpha=1":                          "ec1c502d995baa027d4e14a1eb0b27bb5e05f8e822dda6d715fc835fe52ae1bb",
		"TestGeneratorSequencesPinned/uniform/n=8":                               "a07932183c519eca69ba7942834da8b942d63cde8ff9896b84a77a4c6fb61610",
		"TestGeneratorSequencesPinned/edge-markovian/n=64/p-up=0.05/p-down=0.2":  "61a51c59ffddaedb578cd323404f2db482bb04af86af35f5dfc5f684d3460463",
		"TestGeneratorSequencesPinned/edge-markovian/n=64/p-up=0.01/p-down=0.9":  "19fefce3662c6ed5eef295edb74493b676a9316313dac789454b14c9bda49f38",
		"TestGeneratorSequencesPinned/edge-markovian/n=64/p-up=0.5/p-down=0.5":   "1ad8f6dc744601caf43204ae895f15bd062c419bf97287ad47a16d5b933008d9",
		"TestGeneratorSequencesPinned/edge-markovian/n=64/p-up=0.2/p-down=0.01":  "74563dc20523e159c3d8061d3c21936a07a12f75cf706994c26f150066065726",
		"TestGeneratorSequencesPinned/churn(uniform)/n=64":                       "486bd676b84008136f9a956813643cc10146daa6f9854a96a02fdbb2385e450f",
		"TestGeneratorSequencesPinned/churn(edge-markovian)/n=64":                "1af899d8baa29746422e9f1eca03c1baae8f7c2c35bbf4b9314c8974c4e89505",
		"TestGeneratorSequencesPinned/community/n=64/communities=4/p-intra=0.9":  "c640493a04f2ed950e6815dfb106b83f561278400f58c73907222a2f35aa1cda",
		"TestGeneratorSequencesPinned/community/n=64/communities=2/p-intra=0.5":  "518940fe1fe75a518f3f60974de3d361ef85212bce5c8dd2b4e6c556ebfb1ea4",
		"TestGeneratorSequencesPinned/zipf/n=64/alpha=1":                         "d68b64b42cb85cd10b4a7e36f5371899fae58edc3d66fd4146de243f0c1a55cf",
		"TestGeneratorSequencesPinned/uniform/n=64":                              "7778eedb3ebfbab85b5482b47d41aeafc9298f8ed131438aa9715cda01d491af",
		"TestGeneratorSequencesPinned/edge-markovian/n=128/p-up=0.05/p-down=0.2": "2d173c5be3ff00f9dd76e2df94e77fa7b51f182bf37d66504c02539da3c160de",
		"TestGeneratorSequencesPinned/edge-markovian/n=128/p-up=0.01/p-down=0.9": "d168dc653d4e00007298b10e306855eb67032ac621861e0981ab605fcc6317bd",
		"TestGeneratorSequencesPinned/edge-markovian/n=128/p-up=0.5/p-down=0.5":  "b4855d09834baa9e2469349b69486285142397853cdeea58ea4f6ee8d0ecc62a",
		"TestGeneratorSequencesPinned/edge-markovian/n=128/p-up=0.2/p-down=0.01": "d16cf84b5581b96bb7e6a52664a92fcff0d591f4139ffb8cc782a5b0e48ddcc7",
		"TestGeneratorSequencesPinned/churn(uniform)/n=128":                      "85779167d581f223074f5e928cd52d39314e85cfa0387390224e9321f10b4ae5",
		"TestGeneratorSequencesPinned/churn(edge-markovian)/n=128":               "0ab7a38039965f6c8cab38826daf3edcf2d783bef65527f04faaec0eeeb6c7cd",
		"TestGeneratorSequencesPinned/community/n=128/communities=4/p-intra=0.9": "e068366b74a22d8f3729e6eac360325017be5a837368470ff04bd5fc792ba470",
		"TestGeneratorSequencesPinned/community/n=128/communities=2/p-intra=0.5": "3059638fff60049e302e9532542e98dd3066e1be3015274443076dcf4c7263bb",
		"TestGeneratorSequencesPinned/zipf/n=128/alpha=1":                        "cf7f90ae7a353fb78ed9052170fc3caef92f08bf3b5107e94f9bf8104cdeca05",
		"TestGeneratorSequencesPinned/uniform/n=128":                             "bef914b3ec9e5a82929770deaf0510b58954d42b9077007a72259747a3f04e77",
	}
	for _, n := range []int{8, 64, 128} {
		for _, p := range [][2]float64{{0.05, 0.2}, {0.01, 0.9}, {0.5, 0.5}, {0.2, 0.01}} {
			em, err := NewEdgeMarkovian(n, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("edge-markovian/n=%d/p-up=%v/p-down=%v", n, p[0], p[1]), func(t *testing.T) {
				t.Parallel()
				checkPinned(t, em, prefix, seed, want)
			})
		}
		uni, err := NewUniform(n)
		if err != nil {
			t.Fatal(err)
		}
		em, err := NewEdgeMarkovian(n, 0.05, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for _, inner := range []Model{uni, em} {
			ch, err := NewChurn(inner, 0.1, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/n=%d", ch.Name(), n), func(t *testing.T) {
				t.Parallel()
				checkPinned(t, ch, prefix, seed, want)
			})
		}
		for _, c := range []struct {
			k      int
			pIntra float64
		}{{4, 0.9}, {2, 0.5}} {
			sizes, err := EvenSizes(n, c.k)
			if err != nil {
				t.Fatal(err)
			}
			com, err := NewCommunity(sizes, c.pIntra)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("community/n=%d/communities=%d/p-intra=%v", n, c.k, c.pIntra), func(t *testing.T) {
				t.Parallel()
				checkPinned(t, com, prefix, seed, want)
			})
		}
		zipf, err := NewZipf(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("zipf/n=%d/alpha=1", n), func(t *testing.T) {
			t.Parallel()
			checkPinned(t, zipf, prefix, seed, want)
		})
		t.Run(fmt.Sprintf("uniform/n=%d", n), func(t *testing.T) {
			t.Parallel()
			checkPinned(t, uni, prefix, seed, want)
		})
	}
}

// checkPinned hashes the first prefix interactions m generates from seed
// (each as two little-endian uint32s) and compares against want, keyed
// by the subtest's name.
func checkPinned(t *testing.T, m Model, prefix int, seed uint64, want map[string]string) {
	t.Helper()
	gen := m.Generator(rng.New(seed))
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < prefix; i++ {
		it := gen(i)
		binary.LittleEndian.PutUint32(buf[:4], uint32(it.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(it.V))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want[t.Name()] {
		t.Errorf("%q: %q,", t.Name(), got)
	}
}
