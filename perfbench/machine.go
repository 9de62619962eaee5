package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// machineInfo identifies what a run measured and where.
type machineInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the checked-out commit, or "unknown" outside a git
	// checkout; SourceSHA256 digests the Go sources and go.mod files, so
	// two records of the same code agree even without a commit.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func machine() machineInfo {
	return machineInfo{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       commit(),
		SourceSHA256: sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit asks git only when the working directory is itself a
// checkout, so git never walks up into an unrelated repository.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and bytes of every .go and go.mod file
// under the repository's source trees, in lexical order.
func sourceDigest() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			h.Write([]byte(path))
			h.Write(data)
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}
