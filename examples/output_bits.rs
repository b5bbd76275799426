//! Full-precision output dump: one line per experiment, the `{:?}` of its
//! typed output, for the four report presets at seeds 42, 2013 and 7, then
//! E18 at fluid fidelity on `small-college` at seed 42.
//!
//! Printed tables round to ~4 significant digits, so they can hide a
//! last-bit drift until some other seed crosses a rounding boundary;
//! `{:?}` prints every float in full. To check that a change leaves every
//! output bit-identical, dump both trees and compare the files:
//!
//! ```sh
//! cargo run --release -q --example output_bits > change.txt
//! cmp parent.txt change.txt
//! ```
//!
//! Keep no dump in the repository: platform libms differ in their last
//! bits.

use std::fmt::Debug;

use elearn_cloud::core::experiments::{e16, e17, e18, e19, run_all, t1};
use elearn_cloud::core::scenario::report_presets;
use elearn_cloud::core::Scenario;
use elearn_cloud::fluid::Fidelity;

fn line(scenario: &Scenario, id: &str, output: &impl Debug) {
    println!("{} {} {id} {output:?}", scenario.name(), scenario.seed());
}

fn main() {
    for seed in [42, 2013, 7] {
        for s in report_presets(seed) {
            let suite = run_all(&s);
            line(&s, "e01", &suite.e01);
            line(&s, "e02", &suite.e02);
            line(&s, "e03", &suite.e03);
            line(&s, "e04", &suite.e04);
            line(&s, "e05", &suite.e05);
            line(&s, "e06", &suite.e06);
            line(&s, "e07", &suite.e07);
            line(&s, "e08", &suite.e08);
            line(&s, "e09", &suite.e09);
            line(&s, "e10", &suite.e10);
            line(&s, "e11", &suite.e11);
            line(&s, "e12", &suite.e12);
            line(&s, "e13", &suite.e13);
            line(&s, "e14", &suite.e14);
            line(&s, "e15", &suite.e15);
            line(&s, "e16", &e16::run(&s));
            let serverless = e17::run(&s);
            line(&s, "e17", &serverless);
            line(&s, "e19", &e19::run(&s));
            let metrics: t1::ModelMetrics = suite.metrics();
            line(&s, "t1", &metrics);
            line(
                &s,
                "t1f",
                &e17::FaasColumn::derive(&s, &metrics, &serverless),
            );
        }
    }
    let fluid = Scenario::small_college(42).with_fidelity(Fidelity::Fluid);
    line(&fluid, "e18/fluid", &e18::run(&fluid));
}
