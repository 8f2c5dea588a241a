package ofar

import (
	"encoding/json"
	"fmt"
	"os"

	"ofar/internal/network"
)

// ConfigToJSON serializes a configuration with stable, human-editable
// formatting, so experiment setups can be versioned alongside results.
func ConfigToJSON(cfg Config) ([]byte, error) {
	return json.MarshalIndent(cfg, "", "  ")
}

// ConfigFromJSON parses a configuration and validates it.
func ConfigFromJSON(data []byte) (Config, error) {
	// Start from a neutral zero config: absent fields keep their zero
	// values and Validate reports anything unusable, so a partial file is
	// caught early instead of silently simulating a degenerate network.
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("ofar: parsing config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// LoadConfig reads and validates a configuration file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	return ConfigFromJSON(data)
}

// LoadFaults resolves a -faults argument: a path to a JSON file holding an
// array of Fault objects, or (when no such file exists) an inline schedule
// like "link@5000:12:7,router@20000:3".
func LoadFaults(pathOrSpec string) ([]Fault, error) {
	if data, err := os.ReadFile(pathOrSpec); err == nil {
		var fs []Fault
		if err := json.Unmarshal(data, &fs); err != nil {
			return nil, fmt.Errorf("ofar: parsing fault file %s: %w", pathOrSpec, err)
		}
		return fs, nil
	}
	return network.ParseFaults(pathOrSpec)
}
