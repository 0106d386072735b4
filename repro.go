// Package repro is a rule-management platform for semantics-intensive Big
// Data systems, reproducing "Why Big Data Industrial Systems Need Rules and
// What We Can Do About It" (SIGMOD 2015).
//
// The package is a thin facade over the implementation packages in
// internal/: it re-exports exactly the names that examples/, cmd/ and the
// facade tests build against, and nothing else. The main entry points:
//
//   - Rules: NewWhitelist / NewBlacklist / NewGate / NewAttrExists construct
//     analyst rules; NewRulebase manages them with versioning, scale-down/up
//     and an audit log.
//   - Execution: NewIndexedExecutor is the rule kernel (Apply per item,
//     ApplyBatch per batch); NewSequentialExecutor is the scan-everything
//     oracle.
//   - The pipeline: NewPipeline assembles the Chimera architecture
//     (Figure 2): Gate Keeper → rule, attribute and learned classifiers →
//     Voting Master → Filter, plus the crowd-evaluation / analyst-repair
//     loop. Pipeline.NewResilientClient serves it through the sharded tier.
//   - Tools: NewSynonymTool is the §5.1 synonym finder; GenerateRules is
//     the §5.2 rule miner (AprioriAll + Greedy-Biased selection).
//   - Evaluation: EvaluateWithValidationSet / EvaluatePerRule /
//     EvaluateModule are the three §4 quality-evaluation methods.
//   - Maintenance: FindSubsumed / FindDuplicates / FindOverlaps / FindStale
//     / ConsolidateWhitelists are the §4 maintenance analyses.
//   - Substrates: NewCatalog generates the synthetic product feed; NewCrowd
//     simulates the human layer; the em, ie, kb and social capabilities of
//     §6 are re-exported under their own names.
//   - Operations: NewOpsServer, NewAuditLog, OpenPersist and the serve_*
//     metric names back the CLIs' live-ops, provenance and durability
//     surfaces.
package repro

import (
	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/em"
	"repro/internal/evaluate"
	"repro/internal/faultinject"
	"repro/internal/ie"
	"repro/internal/kb"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/opshttp"
	"repro/internal/pattern"
	"repro/internal/persist"
	"repro/internal/randx"
	"repro/internal/serve"
	"repro/internal/social"
	"repro/internal/synonym"
)

// --- Rules and their execution (internal/core, internal/pattern) ------------

type (
	// Rule is one managed classification rule (whitelist, blacklist, gate,
	// attribute, or filter).
	Rule = core.Rule
	// Rulebase is the versioned, auditable rule repository.
	Rulebase = core.Rulebase
	// Guard is an attribute-side rule condition (§4's language extension:
	// "title contains Apple AND price < 100").
	Guard = core.Guard
	// Verdict is the outcome of executing a rule set on an item.
	Verdict = core.Verdict
	// DevReport is one rule attempt's feedback in the §4 development loop.
	DevReport = core.DevReport
)

var (
	NewWhitelist    = core.NewWhitelist
	NewBlacklist    = core.NewBlacklist
	NewGate         = core.NewGate
	NewAttrExists   = core.NewAttrExists
	NewRulebase     = core.NewRulebase
	NewDevSession   = core.NewDevSession
	NewDataIndex    = core.NewDataIndex
	ProposeRetarget = core.ProposeRetarget

	NewSequentialExecutor  = core.NewSequentialExecutor
	NewIndexedExecutor     = core.NewIndexedExecutor
	CheckOrderIndependence = core.CheckOrderIndependence

	// The §4 maintenance analyses.
	FindSubsumed          = core.FindSubsumed
	FindDuplicates        = core.FindDuplicates
	FindOverlaps          = core.FindOverlaps
	FindStale             = core.FindStale
	ConsolidateWhitelists = core.ConsolidateWhitelists

	// ParsePattern compiles the analyst pattern dialect (rings?,
	// (motor | engine) oils?, diamond.*trio sets?, …); MustParsePattern
	// panics on error; Subsumes reports provable pattern subsumption.
	ParsePattern     = pattern.Parse
	MustParsePattern = pattern.MustParse
	Subsumes         = pattern.Subsumes
)

// --- Chimera pipeline (internal/chimera) -----------------------------------

type (
	// Pipeline is the Figure-2 classification system.
	Pipeline = chimera.Pipeline
	// PipelineConfig parameterizes it.
	PipelineConfig = chimera.Config
	// Decision is the pipeline's per-item output.
	Decision = chimera.Decision
	// BatchResult aggregates a processed batch.
	BatchResult = chimera.BatchResult
)

var (
	// NewPipeline assembles a pipeline with the standard ensemble.
	NewPipeline = chimera.New
	// FlaggedFrom, CorrectByGroundTruth and DegradedTypes pick a batch's
	// first-responder scale-down candidates: the types whose wrong
	// decisions reach a threshold, sorted.
	FlaggedFrom          = chimera.FlaggedFrom
	CorrectByGroundTruth = chimera.CorrectByGroundTruth
	DegradedTypes        = chimera.DegradedTypes
)

// --- Tools and evaluation (internal/synonym, internal/mining, internal/evaluate)

type (
	// SynonymTool is one §5.1 expansion session.
	SynonymTool = synonym.Tool
	// SynonymOptions configures it.
	SynonymOptions = synonym.Options
	// SynonymOracle answers accept/reject for candidates.
	SynonymOracle = synonym.Oracle
	// MiningOptions configures §5.2 rule generation.
	MiningOptions = mining.Options
	// RulePrecision is one rule's estimated precision.
	RulePrecision = evaluate.RulePrecision
)

var (
	NewSynonymTool            = synonym.NewTool
	RunSynonymSession         = synonym.RunSession
	GenerateRules             = mining.GenerateRules
	EvaluateWithValidationSet = evaluate.WithValidationSet
	EvaluatePerRule           = evaluate.PerRule
	EvaluateModule            = evaluate.Module
	HeadTailSplit             = evaluate.HeadTailSplit
	ValidateRule              = evaluate.ValidateRule
)

// --- Substrates (internal/catalog, internal/crowd, internal/randx) -----------

type (
	// Catalog generates the synthetic product feed.
	Catalog = catalog.Catalog
	// CatalogConfig parameterizes it.
	CatalogConfig = catalog.Config
	// Item is one product record (Figure 1).
	Item = catalog.Item
	// BatchSpec describes one incoming batch.
	BatchSpec = catalog.BatchSpec
	// CrowdConfig parameterizes the budgeted worker-pool simulator.
	CrowdConfig = crowd.Config
)

var (
	NewCatalog = catalog.New
	NewCrowd   = crowd.New
	NewRand    = randx.New
)

// --- §6 sister systems (internal/em, internal/ie, internal/kb, internal/social)

type (
	// EMRule is a conjunction of match predicates.
	EMRule = em.Rule
	// EMRuleSet is a disjunction of EM rules.
	EMRuleSet = em.RuleSet
	// IEExtractor bundles IE rules with normalizers.
	IEExtractor = ie.Extractor
	// IEExtraction is one extracted attribute value.
	IEExtraction = ie.Extraction
)

var (
	NewEMRule         = em.NewRule
	EMAttrEquals      = em.AttrEquals
	EMQGramJaccard    = em.QGramJaccard
	EMTokenJaccard    = em.TokenJaccard
	EvaluateEM        = em.Evaluate
	GenerateEMPairs   = em.GeneratePairs
	NewEMBlocker      = em.NewBlocker
	NewIEDictRule     = ie.NewDictRule
	NewIERuleset      = ie.NewRuleset
	NewIENormalizer   = ie.NewNormalizer
	NewIETokenTagger  = ie.NewTokenTagger
	EvaluateIE        = ie.EvaluateExtractor
	BuildKB           = kb.Build
	SyntheticKBSource = kb.SyntheticSource
	NewTagger         = social.NewTagger
)

// --- Serving, observability and durability (internal/serve, internal/obs,
// internal/opshttp, internal/persist, internal/faultinject) -------------------

type (
	// ShardedOptions parameterizes the sharded serving tier
	// (Pipeline.NewShardedServer / Pipeline.NewResilientClient).
	ShardedOptions = serve.ShardedOptions
	// ServeRetryOptions parameterizes each shard's retry with backoff.
	ServeRetryOptions = serve.RetryOptions
	// ShardStatus is one shard's live state (ShardedServer.ShardStatuses).
	ShardStatus = serve.ShardStatus
	// CacheStats is a point-in-time decision-cache counter snapshot
	// (Pipeline.CacheStats).
	CacheStats = serve.CacheStats
	// FaultInjector is the deterministic, seeded fault-injection source for
	// chaos drills; FaultConfig parameterizes it.
	FaultInjector = faultinject.Injector
	FaultConfig   = faultinject.Config

	// AuditConfig parameterizes the decision-provenance ring (capacity,
	// sample stride).
	AuditConfig = obs.AuditConfig
	// OpsServer is the embeddable live-ops HTTP surface (/metrics, /healthz,
	// /readyz, /decisions, /snapshot, /debug/pprof); OpsOptions wires it to
	// the process's observability state.
	OpsServer  = opshttp.Server
	OpsOptions = opshttp.Options
	// OpsHealthStatus is one health-probe result; OpsShardHealth is one
	// shard's entry in it (drives /readyz per-shard queue aggregation).
	OpsHealthStatus = opshttp.HealthStatus
	OpsShardHealth  = opshttp.ShardHealth
	// OpsSnapshotInfo describes the active rule set for /snapshot.
	OpsSnapshotInfo = opshttp.SnapshotInfo

	// PersistStore is the durable rulebase store: a CRC-framed write-ahead
	// log of rule mutations plus periodic compacted snapshots, with
	// crash-safe valid-prefix recovery (OpenPersist → Restore → Attach).
	PersistStore = persist.Store
	// PersistOptions parameterizes OpenPersist.
	PersistOptions = persist.Options
)

var (
	// BuildServeSnapshot builds an immutable serving snapshot of a rulebase's
	// active rules directly (restart drills compare verdicts byte for byte).
	BuildServeSnapshot = serve.BuildSnapshot
	NewFaultInjector   = faultinject.New
	// ErrServeShutdown is returned by the tier after shutdown began.
	ErrServeShutdown = serve.ErrShutdown

	// NewAuditLog builds a decision-provenance ring (a negative Capacity
	// disables capture entirely).
	NewAuditLog = obs.NewAuditLog
	// FormatDecisionBreakdown renders an AuditLog.Breakdown() as the aligned
	// path × outcome table the CLI prints.
	FormatDecisionBreakdown = obs.FormatBreakdown
	// NewOpsServer assembles the live-ops HTTP surface (call Start).
	NewOpsServer = opshttp.New

	// OpenPersist opens (or creates) a durable store directory.
	OpenPersist = persist.Open
	// ExportDecisions writes the audit ring's newest decision records to a
	// file as NDJSON, atomically (temp + rename).
	ExportDecisions = persist.ExportDecisions
)

// Metric names the serving drill reads, all in the pipeline's registry: the
// tier's snapshot swaps, the gate-only answers, and each shard's retry
// counters (labeled shard=N, beside the shard's serve_shard_* ledger that
// ShardedServer.ShardStatuses reports).
const (
	MetricServeSnapshotSwaps = serve.MetricSnapshotSwaps
	MetricDegradedItems      = chimera.MetricDegradedItems
	MetricServeRetryAttempts = serve.MetricRetryAttempts
	MetricServeRetrySuccess  = serve.MetricRetrySuccess
	MetricServeRetryGiveUp   = serve.MetricRetryGiveUp
)
