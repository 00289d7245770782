//! Regenerates the figures and tables of the evaluation.
//!
//! `run_all` runs every experiment in sequence, each under a banner;
//! `run_all <ID>` (for example `run_all T1`) prints that one experiment's
//! report alone. An unknown ID exits non-zero and lists the valid IDs.
use ptsim_bench::experiments as exp;

/// One experiment: its ID and the function that renders its report.
type Section = (&'static str, fn() -> String);

const SECTIONS: [Section; 15] = [
    ("F1", exp::f1_ro_vs_temp::run),
    ("F2", exp::f2_ro_vs_vt::run),
    ("F3", exp::f3_temp_error::run),
    ("F4", exp::f4_vt_error::run),
    ("F5", exp::f5_stack_tracking::run),
    ("F6", exp::f6_tsv_stress::run),
    ("T1", exp::t1_energy::run),
    ("T2", exp::t2_comparison::run),
    ("T3", exp::t3_corners::run),
    ("A1", exp::a1_ablation::run),
    ("X1", exp::x1_pvt2013::run),
    ("X2", exp::x2_aging::run),
    ("X3", exp::x3_placement::run),
    ("R1", exp::r1_faults::run),
    ("R3", exp::r3_dtm::run),
];

fn main() {
    let Some(id) = std::env::args().nth(1) else {
        for (id, f) in SECTIONS {
            println!("{}", "=".repeat(78));
            println!("experiment {id}");
            println!("{}", "=".repeat(78));
            println!("{}", f());
        }
        return;
    };
    match SECTIONS.iter().find(|(name, _)| *name == id) {
        Some((_, f)) => print!("{}", f()),
        None => {
            let ids: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
            eprintln!("unknown experiment {id:?}; valid IDs: {}", ids.join(" "));
            std::process::exit(2);
        }
    }
}
