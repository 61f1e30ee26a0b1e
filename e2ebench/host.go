package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostStamp is the provenance every run record carries. Records whose
// host fields differ measure different machines and are not compared.
type hostStamp struct {
	NProc            int    `json:"nproc"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
	GitCommit        string `json:"git_commit"`
	SourceDigest     string `json:"source_digest"`
	Seed             uint64 `json:"seed"`
}

func newHostStamp(root string, daemonProcs int, seed uint64) hostStamp {
	return hostStamp{
		NProc:            runtime.NumCPU(),
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: daemonProcs,
		CPUModel:         cpuModel(),
		GoVersion:        runtime.Version(),
		GitCommit:        gitCommit(root),
		SourceDigest:     sourceDigest(root),
		Seed:             seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is HEAD when the checkout is a git work tree, else "none".
// The ceiling keeps git from finding a repository above the checkout.
func gitCommit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the checkout's Go sources and module files, which
// identifies the code measured when there is no git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just do not count
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sameHost reports the host fields on which two stamps differ.
func sameHost(a, b hostStamp) []string {
	var diff []string
	if a.NProc != b.NProc {
		diff = append(diff, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.ClientGOMAXPROCS != b.ClientGOMAXPROCS {
		diff = append(diff, fmt.Sprintf("client GOMAXPROCS %d vs %d", a.ClientGOMAXPROCS, b.ClientGOMAXPROCS))
	}
	if a.DaemonGOMAXPROCS != b.DaemonGOMAXPROCS {
		diff = append(diff, fmt.Sprintf("daemon GOMAXPROCS %d vs %d", a.DaemonGOMAXPROCS, b.DaemonGOMAXPROCS))
	}
	if a.CPUModel != b.CPUModel {
		diff = append(diff, fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.GoVersion != b.GoVersion {
		diff = append(diff, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion))
	}
	return diff
}

// exitHostMismatch is compare's exit code for records from different
// hosts: distinct from a regression (1) so scripts can tell them apart.
const exitHostMismatch = 3

// compareRecords compares two run records of one workload. It refuses
// records from different hosts, then lists each end-to-end metric's
// change against the bound in BENCHMARK.json.
func compareRecords(benchFile, oldPath, newPath string) int {
	var old, cur runRecord
	for _, x := range []struct {
		path string
		rec  *runRecord
	}{{oldPath, &old}, {newPath, &cur}} {
		b, err := os.ReadFile(x.path)
		if err == nil {
			err = json.Unmarshal(b, x.rec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench compare: %v\n", err)
			return 2
		}
	}
	if diff := sameHost(old.Host, cur.Host); len(diff) > 0 {
		fmt.Printf("HOST MISMATCH (not a regression report): the records were taken on different hosts: %s. Re-baseline on this host.\n", strings.Join(diff, "; "))
		return exitHostMismatch
	}
	if old.Workload != cur.Workload {
		fmt.Fprintf(os.Stderr, "e2ebench compare: workloads differ (%s vs %s)\n", old.Workload, cur.Workload)
		return 2
	}
	spec, err := loadSpec(benchFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench compare: %v\n", err)
		return 2
	}
	status := 0
	for _, m := range spec.EndToEnd {
		o, c := old.Metrics[m.Name].Value, cur.Metrics[m.Name].Value
		change := (c - o) / o
		if m.Better == "higher" {
			change = -change
		}
		verdict := "ok"
		if change > m.Bound {
			verdict = "REGRESSION"
			status = 1
		}
		fmt.Printf("%-20s %12.4g -> %12.4g %s  worse by %+.1f%% (bound %.0f%%) %s\n", m.Name, o, c, m.Unit, 100*change, 100*m.Bound, verdict)
	}
	return status
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
