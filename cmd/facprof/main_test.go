package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestHeaderUsesBlockGeometry: the header's failure rates come from the
// FAC machine's own cache geometry at every block size. -block 64 used to
// print the 32-byte predictor's rates (loads 14.9%, stores 24.7% on
// qsortst). A block size the machine rejects fails before any run.
func TestHeaderUsesBlockGeometry(t *testing.T) {
	for _, tc := range []struct {
		block, stdout, stderr string
		code                  int
	}{
		{"16", "failure rates (block 16): loads 20.3%, stores 33.9%", "", 0},
		{"32", "failure rates (block 32): loads 14.9%, stores 24.7%", "", 0},
		{"64", "failure rates (block 64): loads 11.6%, stores 19.0%", "", 0},
		{"48", "", "block size 48 not a power of two", 1},
	} {
		var out, errb bytes.Buffer
		code := run([]string{"-benchmark", "qsortst", "-block", tc.block, "-top", "1"}, &out, &errb)
		if code != tc.code || !strings.Contains(out.String(), tc.stdout) || !strings.Contains(errb.String(), tc.stderr) {
			t.Errorf("-block %s: exit %d (want %d), stdout %q (want %q), stderr %q (want %q)",
				tc.block, code, tc.code, out.String(), tc.stdout, errb.String(), tc.stderr)
		}
		if tc.code != 0 && out.Len() != 0 {
			t.Errorf("-block %s: rejected machine still printed %q", tc.block, out.String())
		}
	}
}
