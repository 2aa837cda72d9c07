package main

import (
	"runtime"
	"runtime/debug"
)

// envInfo records what a result was measured on.
type envInfo struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Storage    string  `json:"storage"`
	Revision   string  `json:"vcs_revision"`
	Modified   string  `json:"vcs_modified,omitempty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func environment(cfg runConfig) envInfo {
	e := envInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Storage: "wal.MemStorage", Revision: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value
			}
		}
	}
	return e
}
