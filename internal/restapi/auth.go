// Package restapi implements the Materials API of §III-D2: an HTTP API
// mapping URIs of the form
//
//	/rest/v1/materials/{identifier}/vasp/{property}
//
// to data objects, returning JSON. Authentication is delegated to
// simulated third-party identity providers (the paper uses Google/Yahoo
// OpenID): the server never stores passwords, only provider-vouched
// emails and the API keys it issues. All reads flow through the
// QueryEngine, so queries are sanitized and rate-limited (§IV-D1).
package restapi

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

// TrustedProviders are the third-party identity providers accepted for
// delegated signup.
var TrustedProviders = map[string]bool{"google": true, "yahoo": true}

// Auth manages API keys backed by the users collection.
type Auth struct {
	users *datastore.Collection
}

// NewAuth wires key management to a store.
func NewAuth(store *datastore.Store) *Auth {
	users := store.C("users")
	users.EnsureOrderedIndex("api_key")
	return &Auth{users: users}
}

// Signup registers an identity vouched by a trusted provider and returns
// a fresh API key. Signing up again with the same email rotates nothing:
// the existing key is returned (idempotent).
func (a *Auth) Signup(provider, email string) (string, error) {
	if !TrustedProviders[provider] {
		return "", fmt.Errorf("restapi: untrusted provider %q", provider)
	}
	if email == "" {
		return "", fmt.Errorf("restapi: email required")
	}
	existing, err := a.users.FindOne(document.D{"email": email}, nil)
	if err == nil {
		return existing.GetString("api_key"), nil
	}
	key, err := newAPIKey()
	if err != nil {
		return "", err
	}
	_, err = a.users.Insert(document.D{
		"email":    email,
		"provider": provider,
		"api_key":  key,
	})
	if err != nil {
		return "", fmt.Errorf("restapi: store user record: %w", err)
	}
	return key, nil
}

// Lookup resolves an API key to the owning user's email; ok is false for
// unknown keys.
func (a *Auth) Lookup(key string) (email string, ok bool) {
	if key == "" {
		return "", false
	}
	u, err := a.users.FindOne(document.D{"api_key": key}, nil)
	if err != nil {
		return "", false
	}
	return u.GetString("email"), true
}

func newAPIKey() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("restapi: key generation: %w", err)
	}
	return "mp-" + hex.EncodeToString(b[:]), nil
}
