package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"score/internal/experiments"
)

func TestScenarioNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range scenarioNames() {
		if name == "" || name == "all" || seen[name] {
			t.Errorf("scenario name %q is empty, reserved or duplicated", name)
		}
		seen[name] = true
	}
}

func TestListPrintsTheTableInOrder(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	if got, want := out.String(), strings.Join(scenarioNames(), "\n")+"\n"; got != want {
		t.Errorf("-list printed\n%s\nwant\n%s", got, want)
	}
}

func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var errOut bytes.Buffer
	if code := cli([]string{"-exp", "nope"}, io.Discard, &errOut); code != 2 {
		t.Errorf("-exp nope exited %d, want 2", code)
	}
	want := `unknown experiment "nope" (registered: ` + strings.Join(scenarioNames(), ", ") + ", all)"
	if !strings.Contains(errOut.String(), want) {
		t.Errorf("-exp nope printed\n%s\nwant a line containing\n%s", errOut.String(), want)
	}
}

// TestEveryScenarioRunsAtSmallScale runs the whole table the way
// `-exp all -scale small` does, except concurrently: every scenario gets
// its own Run value and writer, so nothing is shared between them.
func TestEveryScenarioRunsAtSmallScale(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := sc.run(experiments.Run{Scale: experiments.Small()}, &out); err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Error("scenario printed nothing")
			}
		})
	}
}
