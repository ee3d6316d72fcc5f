package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint says what ran where: enough to tell two ledgers apart
// before comparing their numbers.
type fingerprint struct {
	Workload       string   `json:"workload"`
	Seed           int64    `json:"seed"`
	Seconds        float64  `json:"seconds"`
	Traced         bool     `json:"traced"`
	CPUModel       string   `json:"cpu_model"`
	NumCPU         int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	GoVersion      string   `json:"go_version"`
	Kernel         string   `json:"kernel"`
	CPUFlags       []string `json:"cpu_flags"` // adx and bmi2 select the ff assembly kernel
	Preset         string   `json:"preset"`
	StorageBackend string   `json:"storage_backend"`
	Shards         int      `json:"storage_shards"`
	Sync           string   `json:"sync"`
	Commit         string   `json:"commit"`
	SourceSHA256   string   `json:"source_sha256"`
	// TracingOverheadMs is the traced minus the untraced deposit_p50_ms;
	// only a traced run measures both.
	TracingOverheadMs *float64 `json:"tracing_overhead_ms"`
}

func newFingerprint(cfg config, p *pass) fingerprint {
	fp := fingerprint{
		Workload:       cfg.workload,
		Seed:           cfg.seed,
		Seconds:        cfg.seconds.Seconds(),
		Traced:         cfg.trace,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Preset:         cfg.preset,
		StorageBackend: p.backend,
		Shards:         p.shards,
		Sync:           "SyncAlways",
		Commit:         "unknown",
		SourceSHA256:   sourceDigest(cfg.root),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			key, val, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				if fp.CPUModel == "" {
					fp.CPUModel = strings.TrimSpace(val)
				}
			case "flags":
				if fp.CPUFlags == nil {
					fp.CPUFlags = []string{}
					for _, f := range strings.Fields(val) {
						if f == "adx" || f == "bmi2" {
							fp.CPUFlags = append(fp.CPUFlags, f)
						}
					}
				}
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// sourceDigest hashes the Go sources and module files under root, in
// path order: the commit's identity where the tree is not a git
// checkout. Build output directories are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		name := d.Name()
		if !d.Type().IsRegular() || !(strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
