package swrec_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// floatPackages are the packages whose floating-point arithmetic decides
// what is served — similarities, trust ranks, Eq. 3 profiles, weights
// and votes — or what the probe and the experiment records are computed
// from and checked against: the generated communities and load plans,
// the evaluation statistics, the stereotype model and the map-backed
// oracle vectors.
var floatPackages = []string{
	"./internal/profmat", "./internal/trust", "./internal/profile",
	"./internal/core", "./internal/cf", "./internal/strategy",
	"./internal/datagen", "./internal/loadgen", "./internal/eval",
	"./internal/stereotype", "./internal/sparse",
}

// fusedOp matches a fused multiply-add instruction in the compiler's
// assembly listing: FMADD/FMSUB/FNMADD/FNMSUB and their D and S forms.
var fusedOp = regexp.MustCompile(`\tFN?M(ADD|SUB)[A-Z]*\t`)

// TestNoFusedMultiplyAdd cross-compiles floatPackages for the
// architectures where Go fuses x*y + z into one rounding, and fails on
// any fused instruction. amd64 never fuses, so the same source computes
// the same bits everywhere only when every product that meets a sum is
// rounded on its own, by an explicit float64(…) conversion. Without it
// an arm64 build would serve other scores than an amd64 one, restore
// checkpoint values it would not compute, and differ from its own test
// oracles wherever the compiler fused one side and not the other.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles eleven packages for four architectures")
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		t.Run(arch, func(t *testing.T) {
			cmd := exec.Command("go", append([]string{"build", "-gcflags=-S"}, floatPackages...)...)
			cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
			}
			funcs, fused := 0, 0
			sc := bufio.NewScanner(bytes.NewReader(out))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				line := sc.Text()
				if strings.Contains(line, " STEXT ") {
					funcs++
				}
				if fusedOp.MatchString(line) {
					fused++
					t.Errorf("fused multiply-add: %s", strings.Join(strings.Fields(line)[2:], " "))
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if funcs == 0 {
				t.Fatalf("GOARCH=%s: no assembly listing in go build's output", arch)
			}
			if fused > 0 {
				t.Errorf("GOARCH=%s: %d fused operations; round each product with float64(…)", arch, fused)
			}
		})
	}
}
