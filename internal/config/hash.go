package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// CanonicalHash returns a stable content hash of the configuration: two
// configs hash equal exactly when every field is equal. The hash is the
// identity of a deterministic simulation's machine description, which is
// what makes finished results cacheable forever — the serving tier keys
// its result cache and in-flight job coalescing on it.
//
// The canonical form is the JSON encoding of the struct. Go encodes
// struct fields in declaration order with a fixed number format, so the
// encoding — and therefore the hash — is reproducible across processes
// and architectures, and survives a JSON round-trip of the Config itself
// (the round-trip property the tests pin). Every field of Config and its
// embedded cache.Geometry is exported, so none escapes the encoding.
func CanonicalHash(c Config) string {
	b, err := json.Marshal(c)
	if err != nil {
		// Config is plain data (ints, bools, strings, one flat struct), so
		// Marshal fails only on a TripTempC that is NaN or infinite, which
		// Validate rejects: callers hash configs that passed Validate.
		panic(fmt.Sprintf("config: canonical encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
