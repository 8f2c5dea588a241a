package ofar

import (
	"encoding/json"
	"fmt"
	"os"
)

// ConfigToJSON serializes a configuration with stable, human-editable
// formatting, so experiment setups can be versioned alongside results.
func ConfigToJSON(cfg Config) ([]byte, error) {
	return json.MarshalIndent(cfg, "", "  ")
}

// configFromJSON parses a configuration and validates it.
func configFromJSON(data []byte) (Config, error) {
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
	return configFromJSON(data)
}
