package dsl

import (
	"os"
	"path/filepath"
	"testing"

	"tigatest/internal/models"
)

// FuzzDSL checks the printer against the parser: whatever parses prints to
// a form that parses back and prints identically.
func FuzzDSL(f *testing.F) {
	f.Add(beeperSrc)
	f.Add(grammarModel("x <= 1+1", "x - y > (2) && a == 1 && b == 1 && a + (a == 1) > b"))
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "modelfiles", "*.tga"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, name := range []string{"smartlight", "traingate", "lep"} {
		sys, env, _, _, err := models.ByName(name, 3)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(Print(sys, env.Ranges))
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(file.Sys, file.Ranges)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n--- source ---\n%s\n--- printed ---\n%s", err, src, printed)
		}
		if reprinted := Print(again.Sys, again.Ranges); reprinted != printed {
			t.Fatalf("printing is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", printed, reprinted)
		}
	})
}
