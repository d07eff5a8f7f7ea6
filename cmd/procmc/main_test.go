package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestDiesBelowOneIsUsageError(t *testing.T) {
	for _, dies := range []string{"0", "-3"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-dies", dies}, &out, &errOut); code != 2 {
			t.Errorf("-dies %s: exit %d, want 2", dies, code)
		}
		if out.Len() != 0 {
			t.Errorf("-dies %s: wrote %q to stdout", dies, out.String())
		}
		if !strings.Contains(errOut.String(), "-dies must be at least 1") || !strings.Contains(errOut.String(), "Usage") {
			t.Errorf("-dies %s: stderr %q lacks the error and usage", dies, errOut.String())
		}
	}
}

func TestSmallRun(t *testing.T) {
	for _, args := range [][]string{{"-dies", "1"}, {"-dies", "40", "-json"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, errOut.String())
		}
		if strings.Contains(out.String(), "NaN") {
			t.Errorf("%v: output has NaN:\n%s", args, out.String())
		}
	}
}
