//! The application registry — one module per benchmark.

pub mod backprop;
pub mod bfs;
pub mod btree;
pub mod cfd;
pub mod exatensor;
pub mod gaussian;
pub mod heartwall;
pub mod hotspot;
pub mod huffman;
pub mod kmeans;
pub mod lavamd;
pub mod lud;
pub mod membound;
pub mod minimod;
pub mod myocyte;
pub mod nw;
pub mod particlefilter;
pub mod pathfinder;
pub mod pelec;
pub mod quicksilver;
pub mod sradv1;
pub mod streamcluster;

use crate::App;

/// All applications in the paper's Table 3 order.
pub fn all_apps() -> Vec<App> {
    vec![
        backprop::app(),
        bfs::app(),
        btree::app(),
        cfd::app(),
        gaussian::app(),
        heartwall::app(),
        hotspot::app(),
        huffman::app(),
        kmeans::app(),
        lavamd::app(),
        lud::app(),
        myocyte::app(),
        nw::app(),
        particlefilter::app(),
        streamcluster::app(),
        sradv1::app(),
        pathfinder::app(),
        quicksilver::app(),
        exatensor::app(),
        pelec::app(),
        minimod::app(),
    ]
}

/// The Rodinia subset (Figure 7's benchmarks).
pub fn rodinia_apps() -> Vec<App> {
    all_apps().into_iter().filter(|a| a.name.starts_with("rodinia/")).collect()
}

/// Looks an application up by name.
pub fn app_by_name(name: &str) -> Option<App> {
    all_apps().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{arch_for, armed_gpu_with, sim_config};
    use crate::Params;

    #[test]
    fn registry_is_complete() {
        let apps = all_apps();
        assert_eq!(apps.len(), 21);
        let rows: usize = apps.iter().map(|a| a.stages.len()).sum();
        assert_eq!(rows, 26, "Table 3 has 26 optimization rows");
        assert_eq!(rodinia_apps().len(), 17);
        assert!(app_by_name("rodinia/hotspot").is_some());
        assert!(app_by_name("nope").is_none());
    }

    /// Every variant of every app must build and run to completion on a
    /// tiny configuration.
    #[test]
    fn all_variants_run() {
        let p = Params::test();
        let arch = arch_for(&p);
        for app in all_apps() {
            for v in 0..app.variants() {
                let spec = (app.build)(v, &p);
                let (mut gpu, params) = armed_gpu_with(&spec, &arch, sim_config());
                let run = gpu
                    .launch(&spec.module, &spec.entry, &spec.launch, &params)
                    .unwrap_or_else(|e| panic!("{} variant {v} failed: {e}", app.name));
                assert!(run.cycles > 0, "{} variant {v}", app.name);
            }
        }
    }
}
