// Package pipeline wires the full Materials Project deployment end to
// end: synthetic ICSD records load into the mps collection, FireWorks
// executes simulated VASP runs on the cluster simulator, the builder
// reduces tasks into the materials collection, and derived-property
// builders populate the bandstructures, xrd, and batteries collections.
// One Deployment is the "community accessible datastore" of the title,
// ready to serve the Web API, analytics, and V&V.
package pipeline

import (
	"fmt"
	"time"

	"matproj/internal/analysis"
	"matproj/internal/builder"
	"matproj/internal/crystal"
	"matproj/internal/datastore"
	"matproj/internal/dft"
	"matproj/internal/document"
	"matproj/internal/fireworks"
	"matproj/internal/hpc"
	"matproj/internal/icsd"
	"matproj/internal/obs"
	"matproj/internal/queryengine"
)

// Config sizes a deployment build.
type Config struct {
	Seed          int64
	NMaterials    int     // ICSD records to generate
	DuplicateRate float64 // redetermination rate in the synthetic ICSD
	Nodes         int     // cluster nodes
	QueueLimit    int     // per-user batch queue limit (0 = unlimited)
	Workers       int     // task-farm jobs per submission round
	JobWalltime   time.Duration
	PersistDir    string // non-empty enables a durable store
	// SkipDerived skips band structures / XRD / battery screening.
	SkipDerived bool
	// StaticFollowUp chains a static (single-point) firework after every
	// relaxation, exercising parent-child dependencies and fuse overrides
	// at production scale.
	StaticFollowUp bool
	// Faults optionally injects chaos (worker crashes, dropped journal
	// appends) into the computation tier; the build must still converge
	// via lost-run recovery. Typically a *faults.Injector.
	Faults ChaosFaults
	// Obs, when non-nil, wires the whole deployment — datastore,
	// launchpad, and query engine — into a live metrics registry.
	Obs *obs.Registry
	// Tracer, when non-nil, feeds slow operations from the datastore and
	// query engine into a bounded slow-query log.
	Tracer *obs.Tracer
}

// ChaosFaults is the combined fault surface the pipeline can wire into
// both the cluster simulator and the datastore journal.
type ChaosFaults interface {
	hpc.WorkerFaults
	datastore.JournalFaults
}

// DefaultConfig returns a laptop-scale deployment configuration.
func DefaultConfig() Config {
	return Config{
		Seed:          2012,
		NMaterials:    80,
		DuplicateRate: 0.15,
		Nodes:         16,
		QueueLimit:    8,
		Workers:       8,
		JobWalltime:   24 * time.Hour,
	}
}

// Deployment is a fully built system.
type Deployment struct {
	Store   *datastore.Store
	Pad     *fireworks.LaunchPad
	Cluster *hpc.Cluster
	Engine  *queryengine.Engine

	// Counters from the build.
	MPSRecords  int
	Tasks       int
	Materials   int
	BatchJobs   int
	Bands       int
	XRDPatterns int
	Batteries   int
	// ConversionBatteries counts the conversion-electrode couples (the
	// paper's corpus held ~14,000 of these alongside ~400 intercalation
	// batteries — conversion candidates vastly outnumber intercalation
	// because any anion-bearing, alkali-free compound qualifies).
	ConversionBatteries int
}

// Build constructs and runs the whole pipeline.
func Build(cfg Config) (*Deployment, error) {
	if cfg.NMaterials <= 0 {
		return nil, fmt.Errorf("pipeline: NMaterials must be positive")
	}
	store, err := datastore.Open(cfg.PersistDir)
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil || cfg.Tracer != nil {
		store.Observe(cfg.Obs, cfg.Tracer)
	}
	d := &Deployment{Store: store}

	// 1. Input data: synthetic ICSD → mps collection (§III-B1).
	mps := store.C("mps")
	mps.EnsureOrderedIndex("elements")
	mps.EnsureOrderedIndex("nelectrons")
	recs := icsd.Generate(icsd.Config{Seed: cfg.Seed, DuplicateRate: cfg.DuplicateRate}, cfg.NMaterials)
	pad := fireworks.NewLaunchPad(store, 5)
	if cfg.Obs != nil {
		pad.Observe(cfg.Obs)
	}
	fireworks.RegisterVASP(pad)
	d.Pad = pad
	var fws []fireworks.Firework
	for i, r := range recs {
		mdoc := r.ToDoc()
		if _, err := mps.Insert(mdoc); err != nil {
			return nil, err
		}
		relax := fireworks.NewVASPFirework(mdoc, "relax", dft.DefaultParams(), cfg.JobWalltime/4)
		relax.ID = fmt.Sprintf("fw-relax-%s-%06d", r.ID, i)
		fws = append(fws, relax)
		if cfg.StaticFollowUp {
			fws = append(fws, fireworks.NewStaticFirework(mdoc, relax.ID, dft.DefaultParams(), cfg.JobWalltime/4))
		}
	}
	d.MPSRecords = len(recs)
	if _, err := pad.AddWorkflow(fws); err != nil {
		return nil, err
	}

	// 2. Parallel computation on the simulated HPC system (§IV-A).
	cluster := hpc.NewCluster(cfg.Nodes, cfg.QueueLimit,
		hpc.Policy{WorkerOutbound: false, ProxyHost: "mongoproxy01"})
	if cfg.Faults != nil {
		cluster.InjectFaults(cfg.Faults)
		store.InjectJournalFaults(cfg.Faults)
	}
	d.Cluster = cluster
	jobs, err := fireworks.DriveCluster(pad, fireworks.NewVASPAssembler(store), cluster,
		"mp_prod", cfg.Workers, cfg.JobWalltime, nil)
	if err != nil {
		return nil, err
	}
	d.BatchJobs = jobs
	d.Tasks, _ = store.C("tasks").Count(nil)
	if cfg.Faults != nil {
		// Chaos targets the computation tier; the build stages that
		// follow run clean.
		store.InjectJournalFaults(nil)
	}

	// 3. Build the materials collection (§III-B3).
	mb := &builder.MaterialsBuilder{Store: store}
	nm, err := mb.Build()
	if err != nil {
		return nil, err
	}
	d.Materials = nm

	// 4. Derived property collections and stability annotation.
	if !cfg.SkipDerived {
		sb := &builder.StabilityBuilder{Store: store, RefEnergy: dft.ElementalEnergy}
		if _, _, err := sb.Build(); err != nil {
			return nil, err
		}
		if err := d.buildDerived(); err != nil {
			return nil, err
		}
	}

	// 5. Dissemination layer: QueryEngine with the standard aliases.
	eng := queryengine.New(store, queryengine.WithRateLimit(10000, time.Minute))
	if cfg.Obs != nil || cfg.Tracer != nil {
		eng.Observe(cfg.Obs, cfg.Tracer)
	}
	eng.AddAlias("materials", "formula", "pretty_formula")
	eng.AddAlias("materials", "energy", "final_energy")
	eng.AddAlias("materials", "bandgap", "band_gap")
	d.Engine = eng
	return d, nil
}

// buildDerived populates bandstructures, xrd, and batteries from the
// materials collection.
func (d *Deployment) buildDerived() error {
	mats, err := d.Store.C("materials").FindAll(nil, nil)
	if err != nil {
		return err
	}
	bands := d.Store.C("bandstructures")
	xrd := d.Store.C("xrd")
	bands.EnsureOrderedIndex("material_id")
	xrd.EnsureOrderedIndex("material_id")
	var electrodes []analysis.ElectrodeInput
	electrodeStructures := map[int]*crystal.Structure{}
	for _, m := range mats {
		stDoc := m.GetDoc("structure")
		if stDoc == nil {
			continue
		}
		st, err := crystal.StructureFromDoc(stDoc)
		if err != nil {
			continue
		}
		matID, _ := m["_id"].(string)
		gap, _ := m.GetFloat("band_gap")
		bs := dft.ComputeBandStructure(st, &dft.Result{Bandgap: gap}, 8, 40)
		if _, err := bands.Insert(analysis.BandStructureToDoc(matID, bs)); err != nil {
			return err
		}
		d.Bands++
		peaks := analysis.XRDPattern(st, analysis.CuKAlpha, 3)
		if _, err := xrd.Insert(analysis.XRDToDoc(matID, m.GetString("pretty_formula"), analysis.CuKAlpha, peaks)); err != nil {
			return err
		}
		d.XRDPatterns++

		if in, ok := electrodeInput(matID, st, m); ok {
			electrodes = append(electrodes, in)
			electrodeStructures[len(electrodes)-1] = st
		}
	}
	batteries := d.Store.C("batteries")
	cands := analysis.Screen(electrodes)
	attachDiffusion(cands, electrodes, electrodeStructures)
	for _, c := range cands {
		if _, err := batteries.Insert(analysis.BatteryToDoc(c)); err != nil {
			return err
		}
		d.Batteries++
	}

	// Conversion batteries: every alkali-free compound with a convertible
	// anion is a candidate.
	var hosts []crystal.Composition
	for _, m := range mats {
		f := m.GetString("pretty_formula")
		comp, err := crystal.ParseFormula(f)
		if err != nil || analysis.WorkingIon(comp) != "" {
			continue
		}
		hosts = append(hosts, comp)
	}
	conv := d.Store.C("conversion_batteries")
	for _, c := range analysis.ScreenConversion(hosts, "Li", dft.CompositionEnergy, dft.ElementalEnergy("Li")) {
		if _, err := conv.Insert(analysis.BatteryToDoc(c)); err != nil {
			return err
		}
		d.ConversionBatteries++
	}
	return nil
}

// electrodeInput derives a candidate electrode couple from a material:
// the stored structure is the lithiated phase; the host is the same
// structure with the working ion removed, evaluated with the same DFT
// model.
func electrodeInput(matID string, st *crystal.Structure, m document.D) (analysis.ElectrodeInput, bool) {
	comp := st.Composition()
	ion := analysis.WorkingIon(comp)
	if ion == "" {
		return analysis.ElectrodeInput{}, false
	}
	host := &crystal.Structure{Lattice: st.Lattice}
	for _, site := range st.Sites {
		if site.Species != ion {
			host.Sites = append(host.Sites, site)
		}
	}
	if len(host.Sites) == 0 || len(host.Sites) == len(st.Sites) {
		return analysis.ElectrodeInput{}, false
	}
	eLith, ok := m.GetFloat("final_energy")
	if !ok {
		return analysis.ElectrodeInput{}, false
	}
	p := dft.DefaultParams()
	p.Potim = 0.2
	p.Algo = "Normal"
	p.NELM = 4000
	res, err := dft.Run(host, p)
	if err != nil || !res.Converged() {
		return analysis.ElectrodeInput{}, false
	}
	return analysis.ElectrodeInput{
		ID:          "bat-" + matID,
		Lithiated:   comp,
		Host:        host.Composition(),
		ELith:       eLith,
		EHost:       res.FinalEnergy,
		Ion:         ion,
		EIonPerAtom: dft.ElementalEnergy(ion),
	}, true
}

// BatteryScreen runs the standalone Fig. 1 screen over n synthetic
// battery frameworks: both lithiated and delithiated phases are computed
// with the DFT model and each couple evaluated for voltage and capacity.
func BatteryScreen(seed int64, n int) ([]analysis.BatteryCandidate, error) {
	recs := icsd.GenerateBatteryFrameworks(seed, n)
	var inputs []analysis.ElectrodeInput
	structures := map[int]*crystal.Structure{}
	p := dft.DefaultParams()
	p.Potim = 0.2
	p.Algo = "Normal"
	p.NELM = 4000
	for _, r := range recs {
		st := r.Structure
		comp := st.Composition()
		ion := analysis.WorkingIon(comp)
		if ion == "" {
			continue
		}
		host := &crystal.Structure{Lattice: st.Lattice}
		for _, site := range st.Sites {
			if site.Species != ion {
				host.Sites = append(host.Sites, site)
			}
		}
		if len(host.Sites) == 0 {
			continue
		}
		lithRes, err := dft.Run(st, p)
		if err != nil || !lithRes.Converged() {
			continue
		}
		hostRes, err := dft.Run(host, p)
		if err != nil || !hostRes.Converged() {
			continue
		}
		inputs = append(inputs, analysis.ElectrodeInput{
			ID:          "bat-" + r.ID,
			Lithiated:   comp,
			Host:        host.Composition(),
			ELith:       lithRes.FinalEnergy,
			EHost:       hostRes.FinalEnergy,
			Ion:         ion,
			EIonPerAtom: dft.ElementalEnergy(ion),
		})
		structures[len(inputs)-1] = st
	}
	cands := analysis.Screen(inputs)
	attachDiffusion(cands, inputs, structures)
	return cands, nil
}

// attachDiffusion runs the geometric ion-migration screen on each
// surviving candidate's lithiated structure ("further computations can
// be used to screen promising candidates for other important properties
// such as Li diffusivity").
func attachDiffusion(cands []analysis.BatteryCandidate, inputs []analysis.ElectrodeInput, structures map[int]*crystal.Structure) {
	byID := make(map[string]*crystal.Structure, len(structures))
	for i, st := range structures {
		byID[inputs[i].ID] = st
	}
	for i := range cands {
		st := byID[cands[i].ID]
		if st == nil {
			continue
		}
		hop, err := analysis.DiffusionBarrier(st, cands[i].Ion)
		if err != nil {
			continue
		}
		cands[i].Barrier = hop.Barrier
		cands[i].Diffusivity = analysis.Diffusivity(hop.Barrier, 300)
	}
}
