package ofar

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Routing = OFARL
	cfg.Ring = RingEmbedded
	cfg.NumRings = 2
	cfg.OFAR.EscapeTimeout = 64
	cfg.Congestion.Enabled = true
	cfg.Congestion.Threshold = 0.6
	cfg.Faults = []Fault{{Cycle: 100, Kind: FaultLink, Router: 2, Port: 4}}
	data, err := ConfigToJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := configFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, cfg)
	}
}

// TestConfigFromJSONIgnoresRetiredKeys: -dump-config files written before
// ParallelCutover and DisableShardedGenerate were removed still load.
func TestConfigFromJSONIgnoresRetiredKeys(t *testing.T) {
	data, err := ConfigToJSON(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	old := append(data[:len(data)-2:len(data)-2], ",\n  \"ParallelCutover\": 8,\n  \"DisableShardedGenerate\": true\n}"...)
	back, err := configFromJSON(old)
	if err != nil {
		t.Fatalf("config with retired keys rejected: %v", err)
	}
	if !reflect.DeepEqual(back, DefaultConfig(2)) {
		t.Errorf("retired keys changed the loaded config: %+v", back)
	}
}

func TestConfigFromJSONValidates(t *testing.T) {
	if _, err := configFromJSON([]byte(`{"P":0}`)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := configFromJSON([]byte(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := DefaultConfig(2)
	data, err := ConfigToJSON(cfg) // the JSON ofarsim -dump-config prints
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	// The file is valid JSON a human can edit.
	raw, _ := os.ReadFile(path)
	if len(raw) < 100 || raw[0] != '{' {
		t.Error("config file not human-readable JSON")
	}
}
