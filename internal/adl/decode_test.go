package adl

import (
	"errors"
	"strings"
	"testing"
)

// TestDecodeAndPickAssembly: Decode tells JSON from DSL by the first
// non-space byte, and PickAssembly defaults to the sole assembly only
// when there is exactly one.
func TestDecodeAndPickAssembly(t *testing.T) {
	twoDoc, err := ParseDSL(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	twoJSON, err := MarshalJSON(twoDoc)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the remote assembly: the local one is then the sole choice.
	oneDSL := paperDSL[:strings.Index(paperDSL, "assembly remote")]
	oneDoc, err := ParseDSL(oneDSL)
	if err != nil {
		t.Fatal(err)
	}
	oneJSON, err := MarshalJSON(oneDoc)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		src       string
		syntaxErr bool   // decoding fails with a DSL syntax error
		jsonErr   bool   // decoding fails, but not as DSL
		services  int    // services in the decoded document
		pick      string // PickAssembly(""); "" = ErrAmbiguousAssembly
	}{
		{name: "dsl, several assemblies", src: paperDSL, services: 8},
		{name: "dsl, one assembly", src: oneDSL, services: 8, pick: "local"},
		{name: "json, several assemblies", src: string(twoJSON), services: 8},
		{name: "json with leading whitespace, one assembly", src: " \n\t\r" + string(oneJSON), services: 8, pick: "local"},
		{name: "empty input", src: ""},
		{name: "whitespace only", src: " \n\t"},
		{name: "malformed json is not parsed as dsl", src: "\n  {not json", jsonErr: true},
		{name: "malformed dsl", src: "service x\n}", syntaxErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := Decode([]byte(tc.src))
			if tc.syntaxErr || tc.jsonErr {
				if err == nil {
					t.Fatal("decoded malformed input")
				}
				if got := errors.Is(err, ErrSyntax); got != tc.syntaxErr {
					t.Fatalf("errors.Is(err, ErrSyntax) = %v, want %v (err %v)", got, tc.syntaxErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(doc.Services) != tc.services {
				t.Fatalf("services = %d, want %d", len(doc.Services), tc.services)
			}
			name, err := doc.PickAssembly("")
			if tc.pick == "" {
				if !errors.Is(err, ErrAmbiguousAssembly) {
					t.Fatalf("PickAssembly(\"\") = %q, %v; want ErrAmbiguousAssembly", name, err)
				}
			} else if err != nil || name != tc.pick {
				t.Fatalf("PickAssembly(\"\") = %q, %v; want %q", name, err, tc.pick)
			}
			// A named assembly always passes through, ambiguous or not.
			if name, err := doc.PickAssembly("remote"); err != nil || name != "remote" {
				t.Fatalf("PickAssembly(\"remote\") = %q, %v", name, err)
			}
		})
	}
}
