package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// parse parses args into a fresh flag set holding flexric-ctrl's flags
// at their defaults.
func parse(t *testing.T, args string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("flexric-ctrl", flag.ContinueOnError)
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the test binary's own flags
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatal(err)
		}
		fs.Var(f.Value, f.Name, f.Usage)
	})
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	return fs
}

// TestFlagRulesReject: every flag combination one of the three roles
// would ignore is refused, and the error names both flags.
func TestFlagRulesReject(t *testing.T) {
	type reject struct {
		args       string
		flag, with string
	}
	var cases []reject
	for _, f := range standaloneFlags {
		arg := "-" + f + " x"
		switch f {
		case "a1", "tsdb-compress":
			arg = "-" + f
		case "sla-tick", "tsdb", "ingest-workers":
			arg = "-" + f + " 2"
		case "a1-snapshot-every", "dial-timeout", "tsdb-age":
			arg = "-" + f + " 1s"
		}
		cases = append(cases,
			reject{arg + " -root -federate s0", f, "root"},
			reject{arg + " -shard-of 127.0.0.1:36421 -shard-name s0 -federate s0", f, "shard-of"})
	}
	cases = append(cases, []reject{
		{"-root -shard-of 127.0.0.1:36421 -federate s0", "root", "shard-of"},
		{"-shard-name s0", "shard-name", "shard-of"},
		{"-root -federate s0 -shard-name s0", "shard-name", "shard-of"},
		{"-fed-snapshots /tmp/shards", "fed-snapshots", "shard-of"},
		{"-root -federate s0 -fed-snapshots /tmp/shards", "fed-snapshots", "shard-of"},
		{"-federate s0,s1", "federate", "root"},
		{"-tsdb-snapshot-every 3s", "tsdb-snapshot-every", "tsdb-snapshot"},
		{"-shard-of 127.0.0.1:36421 -shard-name s0 -federate s0 -tsdb-snapshot-every 3s", "tsdb-snapshot-every", "fed-snapshots"},
		{"-root -federate s0 -tsdb-snapshot-every 3s", "tsdb-snapshot-every", "root"},
		{"-a1 -obs :9090 -slicing :8080 -a1-snapshot-every 3s", "a1-snapshot-every", "a1-snapshot"},
		{"-a1-snapshot /tmp/a1.snap", "a1-snapshot", "a1"},
		{"-sla-tick 200", "sla-tick", "a1"},
		{"-a1 -slicing :8080", "a1", "obs"},
		{"-a1 -obs :9090", "a1", "slicing"},
		{"-broker 127.0.0.1:4222", "broker", "tc"},
		{"-keepalive 1s -resilience=false", "keepalive", "resilience"},
		{"-retain 30s -resilience=false", "retain", "resilience"},
	}...)
	for _, c := range cases {
		err := checkFlags(parse(t, c.args))
		if err == nil {
			t.Errorf("%s: accepted", c.args)
			continue
		}
		if words := strings.Fields(err.Error()); !slices.Contains(words, "-"+c.flag) || !slices.Contains(words, "-"+c.with) {
			t.Errorf("%s: %q does not name -%s and -%s", c.args, err, c.flag, c.with)
		}
	}
}

// TestFlagRulesAccept: every command line the documentation shows
// passes the rules.
func TestFlagRulesAccept(t *testing.T) {
	for _, args := range []string{
		"",
		// README.md
		"-e2 127.0.0.1:36421 -slicing 127.0.0.1:8080",
		"-e2 127.0.0.1:36421 -obs :9090 -trace-sample 1",
		"-tsdb 2048 -tsdb-compress -tsdb-snapshot /tmp/t.snap -tsdb-snapshot-every 3s",
		"-slicing :8080 -tsdb 1024 -obs :9090 -a1 -a1-snapshot /tmp/a1.snap -a1-snapshot-every 5s",
		"-slicing :8080 -tc :8081 -period 10 -obs :9090 -a1",
		// docs/FEDERATION.md
		"-root -federate s0,s1,s2 -e2 :36421 -obs :9090",
		"-shard-of 127.0.0.1:36421 -shard-name s0 -federate s0,s1,s2 -e2 :36431 -obs :9091 -fed-snapshots /var/lib/flexric/shards",
		"-shard-of 127.0.0.1:36421 -shard-name s0 -federate s0,s1,s2 -fed-snapshots /tmp/shards -tsdb-snapshot-every 3s",
		// the telemetry dump in both federation roles
		"-root -federate s0,s1,s2 -e2 :36421 -telemetry -telemetry-every 2s",
		"-shard-of 127.0.0.1:36421 -shard-name s0 -federate s0,s1,s2 -telemetry -telemetry-every 2s",
		// docs/A1.md, docs/CONTROLROOM.md, docs/RESILIENCE.md
		"-e2 127.0.0.1:36421 -slicing 127.0.0.1:8080 -tsdb 1024 -obs 127.0.0.1:9090 -a1 -sla-tick 500",
		"-e2 127.0.0.1:36421 -tsdb 1024 -trace-sample 1 -obs 127.0.0.1:9090",
		"-resilience -keepalive 1s -retain 30s -dial-timeout 5s -faultplan blackout@1=2",
		"-resilience=false -tc :8081 -broker 127.0.0.1:4222 -ingest-workers 2",
		// -tsdb 0 takes the store's default capacity; the store is on.
		"-tsdb 0 -tsdb-snapshot /tmp/t.snap",
		"-a1 -obs :9090 -slicing :8080 -tsdb 0",
	} {
		if err := checkFlags(parse(t, args)); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}
