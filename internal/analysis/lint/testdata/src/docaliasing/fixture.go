// Golden fixture for the docaliasing analyzer, loaded as an internal/
// package and again as a cmd/ and an examples/ package. The datastore
// hands out the stored documents themselves, and the engine and the
// router hand out results other callers share; mutating one without
// Copy() corrupts the store behind the journal's back or poisons a
// cached reply.
package fixture

import (
	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/document"
)

func mutatesRanged(c *datastore.Collection) {
	docs, _ := c.FindAll(nil, nil)
	for _, d := range docs {
		d["flag"] = true // want `d aliases a document returned by a datastore/queryengine/cluster read`
	}
}

func mutatesSingle(c *datastore.Collection) {
	d, _ := c.FindID("mp-1")
	d.Set("flag", true) // want `d\.Set mutates a document returned by a read`
	delete(d, "flag")   // want `delete on d, which aliases a document`
}

func mutatesNested(c *datastore.Collection) {
	d, _ := c.FindID("mp-1")
	d.GetDoc("spectrum")["peak"] = 1.0 // want `d aliases a document`
}

func mutatesRouted(r *cluster.Router) {
	d, _ := r.Get("materials", "mp-1")
	d["flag"] = true // want `d aliases a document returned by a datastore/queryengine/cluster read`
	docs, _ := r.C("materials").FindAll(nil, nil)
	docs[0].Set("flag", true) // want `docs\.Set mutates a document returned by a read`
}

func copiesFirst(c *datastore.Collection) document.D {
	d, _ := c.FindID("mp-1")
	d = d.Copy()
	d["flag"] = true // rebound through Copy: allowed
	return d
}

func freshDoc() {
	d := document.D{"a": 1}
	d["b"] = 2 // not from a read: allowed
}
