// Package sandbox implements user-controlled data areas (Fig. 3 d–f of
// the paper): a sandbox is "only visible to the creator and selected
// collaborators"; its contents can later "become publicly disseminated
// through the MP website" by release into the core database. The package
// also provides the collaborative annotation tools the paper's
// architecture shows alongside dissemination.
package sandbox

import (
	"errors"
	"fmt"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

// ErrForbidden is returned when a user lacks access to a sandbox.
var ErrForbidden = errors.New("sandbox: access denied")

// Manager coordinates sandboxes over a datastore. Sandboxed documents
// live in the sandbox_data collection tagged with their sandbox id; the
// vetted public data lives in the core materials collection.
type Manager struct {
	store *datastore.Store
	meta  *datastore.Collection
	data  *datastore.Collection
	notes *datastore.Collection
	core  *datastore.Collection
}

// New creates a sandbox manager on a store. coreCollection names the
// public collection releases go to (normally "materials").
func New(store *datastore.Store, coreCollection string) *Manager {
	m := &Manager{
		store: store,
		meta:  store.C("sandbox_meta"),
		data:  store.C("sandbox_data"),
		notes: store.C("annotations"),
		core:  store.C(coreCollection),
	}
	m.data.EnsureOrderedIndex("sandbox_id")
	m.notes.EnsureOrderedIndex("material_id")
	return m
}

// Create makes a new sandbox owned by owner and returns its id.
func (m *Manager) Create(name, owner string) (string, error) {
	if name == "" || owner == "" {
		return "", fmt.Errorf("sandbox: name and owner are required")
	}
	id, err := m.meta.Insert(document.D{
		"name":          name,
		"owner":         owner,
		"collaborators": []any{},
	})
	if err != nil {
		return "", err
	}
	return id, nil
}

// AddCollaborator grants a user access; only the owner may do this.
func (m *Manager) AddCollaborator(sandboxID, owner, user string) error {
	meta, err := m.meta.FindID(sandboxID)
	if err != nil {
		return err
	}
	if meta.GetString("owner") != owner {
		return fmt.Errorf("%w: %s does not own %s", ErrForbidden, owner, sandboxID)
	}
	_, err = m.meta.UpdateOne(document.D{"_id": sandboxID},
		document.D{"$addToSet": document.D{"collaborators": user}})
	return err
}

// CanAccess reports whether user may read or write the sandbox.
func (m *Manager) CanAccess(sandboxID, user string) bool {
	meta, err := m.meta.FindID(sandboxID)
	if err != nil {
		return false
	}
	if meta.GetString("owner") == user {
		return true
	}
	for _, c := range meta.GetArray("collaborators") {
		if c == user {
			return true
		}
	}
	return false
}

// Submit stores a document in the sandbox. Returns the stored doc id.
func (m *Manager) Submit(sandboxID, user string, doc document.D) (string, error) {
	if !m.CanAccess(sandboxID, user) {
		return "", fmt.Errorf("%w: %s on %s", ErrForbidden, user, sandboxID)
	}
	d := doc.Copy()
	d["sandbox_id"] = sandboxID
	d["submitted_by"] = user
	d["released"] = false
	return m.data.Insert(d)
}

// List returns the sandbox's documents for an authorized user.
func (m *Manager) List(sandboxID, user string) ([]document.D, error) {
	if !m.CanAccess(sandboxID, user) {
		return nil, fmt.Errorf("%w: %s on %s", ErrForbidden, user, sandboxID)
	}
	return m.data.FindAll(document.D{"sandbox_id": sandboxID}, nil)
}

// Release publishes a sandboxed document into the core collection ("at
// any point — e.g., after a publication or a patent filing — the user can
// allow the data to become publicly disseminated"). Only the sandbox
// owner may release. The sandbox copy is marked released and the new
// public id returned.
func (m *Manager) Release(sandboxID, owner, docID string) (string, error) {
	meta, err := m.meta.FindID(sandboxID)
	if err != nil {
		return "", err
	}
	if meta.GetString("owner") != owner {
		return "", fmt.Errorf("%w: %s does not own %s", ErrForbidden, owner, sandboxID)
	}
	d, err := m.data.FindID(docID)
	if err != nil {
		return "", err
	}
	if d.GetString("sandbox_id") != sandboxID {
		return "", fmt.Errorf("sandbox: document %s not in sandbox %s", docID, sandboxID)
	}
	if rel, _ := d.Get("released"); rel == true {
		return "", fmt.Errorf("sandbox: document %s already released", docID)
	}
	pub := d.Copy()
	delete(pub, "_id")
	delete(pub, "sandbox_id")
	delete(pub, "released")
	pub["provenance"] = map[string]any{
		"sandbox": meta.GetString("name"),
		"user":    d.GetString("submitted_by"),
	}
	pubID, err := m.core.Insert(pub)
	if err != nil {
		return "", err
	}
	if _, err := m.data.UpdateOne(document.D{"_id": docID},
		document.D{"$set": document.D{"released": true, "public_id": pubID}}); err != nil {
		return "", err
	}
	return pubID, nil
}

// Annotate attaches a public annotation to a core material
// ("collaborative tools allow users to publicly annotate the data").
func (m *Manager) Annotate(materialID, user, text string) (string, error) {
	if _, err := m.core.FindID(materialID); err != nil {
		return "", fmt.Errorf("sandbox: annotate: %w", err)
	}
	if text == "" {
		return "", fmt.Errorf("sandbox: empty annotation")
	}
	return m.notes.Insert(document.D{
		"material_id": materialID,
		"user":        user,
		"text":        text,
	})
}

// Annotations lists a material's annotations.
func (m *Manager) Annotations(materialID string) ([]document.D, error) {
	return m.notes.FindAll(document.D{"material_id": materialID}, nil)
}
