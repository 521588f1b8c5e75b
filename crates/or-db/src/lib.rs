//! # or-db — a design & planning database substrate over or-sets
//!
//! The motivating applications of the paper (and of Imielinski, Naqvi and
//! Vadaparty's or-set proposal) are design, planning and scheduling databases
//! in which attributes record *alternatives*.  This crate provides the
//! database-shaped substrate the examples and benchmarks run on:
//!
//! * [`schema`] / [`relation`] — named record schemas over the or-NRA type
//!   system and in-memory relations that convert to complex objects and run
//!   or-NRA⁺ queries;
//! * [`codd`] — Codd tables (classical null-based incomplete information) and
//!   their import as flat-domain nulls or as closed-world or-sets;
//! * [`design`] — the design-template domain: components with alternative
//!   modules, structural queries ("what are the choices?") and conceptual
//!   queries ("is there a low-cost completed design?");
//! * [`planning`] — a single-resource scheduling domain with or-set slot
//!   choices and an existential "is there a conflict-free schedule?" query;
//! * [`workload`] — deterministic synthetic workload generators used by the
//!   benchmark harness.
//!
//! ```
//! use or_db::design::{Component, DesignTemplate, ModuleOption};
//!
//! let template = DesignTemplate::new(vec![Component::new(
//!     "A",
//!     vec![ModuleOption::new("B", 70, "acme"), ModuleOption::new("C", 40, "globex")],
//! )]);
//! // Structural level: two recorded choices.
//! assert_eq!(template.choices_for("A").unwrap().len(), 2);
//! // Conceptual level: two completed designs, the cheapest costing 40.
//! assert_eq!(template.completed_design_count(), 2);
//! assert_eq!(template.cheapest_design().unwrap().total_cost(), 40);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod codd;
pub mod design;
pub mod planning;
pub mod relation;
pub mod schema;
pub mod workload;

pub use codd::{Cell, CoddTable};
pub use design::{Component, DesignTemplate, ModuleOption};
pub use planning::{PlanningProblem, Schedule, Task};
pub use relation::{InternedRows, Relation, RelationError};
pub use schema::{Field, Schema, SchemaError};
pub use workload::Workload;
