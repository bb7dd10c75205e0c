package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/store"
)

// seedStore publishes testADL (and a second version) into a disk store
// and returns its directory.
func seedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	doc, err := adl.ParseDSL(testADL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("acme", "app", doc, store.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	doc2, err := adl.ParseDSL(strings.Replace(testADL, "attr phi 1e-8", "attr phi 1e-6", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("acme", "app", doc2, store.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestModelFromFile(t *testing.T) {
	path := writeTempADL(t)
	var out bytes.Buffer
	if err := run([]string{"-model", path, "-service", "app", "-params", "4096"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Pfail") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

func TestModelFromStore(t *testing.T) {
	dir := seedStore(t)
	var v1, v2, latest bytes.Buffer
	if err := run([]string{"-model", "acme/app@1", "-store", dir, "-service", "app", "-params", "4096"}, &v1); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "acme/app@2", "-store", dir, "-service", "app", "-params", "4096"}, &v2); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "acme/app", "-store", dir, "-service", "app", "-params", "4096"}, &latest); err != nil {
		t.Fatal(err)
	}
	if v1.String() == v2.String() {
		t.Fatal("v1 and v2 predictions identical; version routing broken")
	}
	if latest.String() != v2.String() {
		t.Fatalf("latest should be v2:\n%s\nvs\n%s", latest.String(), v2.String())
	}
}

func TestModelToJSONRoundTrip(t *testing.T) {
	dir := seedStore(t)
	var out bytes.Buffer
	if err := run([]string{"-model", "acme/app@1", "-store", dir, "-tojson"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := adl.UnmarshalJSON(out.Bytes()); err != nil {
		t.Fatalf("-tojson output does not parse: %v", err)
	}
}

// TestModelExitCodes pins the typed exit codes of the -model path: 2 for
// naming mistakes, 5 for models that load but are defective.
func TestModelExitCodes(t *testing.T) {
	dir := seedStore(t)
	var out bytes.Buffer

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"store ref without -store", []string{"-model", "acme/app"}, exitUsage},
		{"unknown model", []string{"-model", "acme/ghost", "-store", dir}, exitUsage},
		{"unknown version", []string{"-model", "acme/app@99", "-store", dir}, exitUsage},
		{"neither file nor ref", []string{"-model", "no-such-thing"}, exitUsage},
		{"bad ref syntax", []string{"-model", "a/b/c@x", "-store", dir}, exitUsage},
		{"model exclusive with file", []string{"-model", "acme/app", "-store", dir, "-file", "x.adl"}, exitUsage},
		{"ok", []string{"-model", "acme/app", "-store", dir, "-service", "app", "-params", "4096"}, exitOK},
	}
	for _, tc := range cases {
		out.Reset()
		err := run(tc.args, &out)
		if got := exitCodeFor(err); got != tc.want {
			t.Errorf("%s: err = %v, exit = %d, want %d", tc.name, err, got, tc.want)
		}
	}
}

func TestModelVersionPinOnFileIsUsageError(t *testing.T) {
	path := writeTempADL(t)
	var out bytes.Buffer
	err := run([]string{"-model", path + "@2", "-service", "app", "-params", "4096"}, &out)
	if exitCodeFor(err) != exitUsage {
		t.Fatalf("version pin on a file: err = %v, exit = %d, want %d", err, exitCodeFor(err), exitUsage)
	}
	if !strings.Contains(err.Error(), "version pins apply only to store refs") {
		t.Fatalf("unhelpful message: %v", err)
	}
}

func TestModelDefectiveFileExits5(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.adl")
	if err := os.WriteFile(path, []byte("service cpu1 cpu {\n    speed 1e9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-model", path, "-params", "1"}, &out)
	if got := exitCodeFor(err); got != exitDefect {
		t.Fatalf("broken file via -model: err = %v, exit = %d, want %d", err, got, exitDefect)
	}
}

// TestAmbiguousDocumentIsUsage: a document with several assemblies and
// no -assembly is a usage error, whether it arrives via -file or -model.
func TestAmbiguousDocumentIsUsage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two.adl")
	src := testADL + "assembly other {\n    bind app.cpu1 -> cpu1\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flagName := range []string{"-file", "-model"} {
		err := run([]string{flagName, path, "-service", "app", "-params", "10"}, &bytes.Buffer{})
		if exitCodeFor(err) != exitUsage {
			t.Errorf("%s ambiguous: err = %v, exit = %d, want %d", flagName, err, exitCodeFor(err), exitUsage)
		}
		if err := run([]string{flagName, path, "-assembly", "other", "-service", "app", "-params", "10"}, &bytes.Buffer{}); err != nil {
			t.Errorf("%s with -assembly: %v", flagName, err)
		}
	}
}
