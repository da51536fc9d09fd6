package eval

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// figure matches a decimal percentage as EXPERIMENTS.md quotes one.
var figure = regexp.MustCompile(`[0-9]+\.[0-9]%`)

// TestExperimentsFiguresInArchive requires every decimal percentage
// EXPERIMENTS.md quotes, outside the paragraphs that begin with "Paper:"
// (the paper's own numbers), to be one the archived default run prints, so
// neither file moves without the other.
func TestExperimentsFiguresInArchive(t *testing.T) {
	root := filepath.Join("..", "..")
	archivePath := filepath.Join("docs", "experiments-output-20k-seed42.txt")
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	archive, err := os.ReadFile(filepath.Join(root, archivePath))
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for _, f := range figure.FindAllString(string(archive), -1) {
		printed[f] = true
	}
	quoted := 0
	paperPara, paraStart := false, true
	for i, line := range strings.Split(string(doc), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			paraStart = true
			continue
		}
		if paraStart {
			paperPara, paraStart = strings.HasPrefix(line, "Paper:"), false
		}
		if paperPara {
			continue
		}
		for _, f := range figure.FindAllString(line, -1) {
			quoted++
			if !printed[f] {
				t.Errorf("EXPERIMENTS.md:%d quotes %s, which %s does not print", i+1, f, archivePath)
			}
		}
	}
	if quoted == 0 {
		t.Fatal("EXPERIMENTS.md quotes no figures: the check compared nothing")
	}
}
