//! Shared experiment sweeps used by the figure/table binaries.
//!
//! Every figure of §6 is a sweep of one parameter with all other parameters
//! at their Table-4 defaults; these helpers run the sweeps and return the
//! per-method series so that the binaries only parse arguments and print.

use crate::cli::{invalid_value, Args};
use crate::params::ExperimentParams;
use crate::quality::evaluate_average_spread;
use crate::report::Series;
use crate::runner::{run_method, BaselineBudget, MethodKind, MethodRun};
use rtim_datagen::{DatasetConfig, DatasetKind, Scale};
use rtim_stream::SocialStream;

/// Argument keys understood by every experiment binary.
pub const COMMON_KEYS: &[&str] = &[
    "dataset",
    "datasets",
    "scale",
    "k",
    "beta",
    "window",
    "slide",
    "actions",
    "users",
    "mc-rounds",
    "eval-every",
    "max-slides",
    "seed",
    "oracle",
];

/// Parameters resolved from the command line for one experiment binary.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Fully resolved per-run parameters (Table-4 defaults at the requested
    /// scale unless overridden).
    pub params: ExperimentParams,
    /// Datasets to sweep (default: all four).
    pub datasets: Vec<DatasetKind>,
    /// Baseline resource budget.
    pub budget: BaselineBudget,
    /// Dataset size overrides.
    pub actions: Option<u64>,
    /// Dataset user-count override.
    pub users: Option<u32>,
}

impl CommonArgs {
    /// Resolves common arguments with laptop-scale defaults.  An unknown
    /// name or an unparseable value prints the flag and value and exits
    /// with status 2, like an unknown flag.
    pub fn resolve(args: &Args) -> CommonArgs {
        Self::try_resolve(args).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }

    /// [`CommonArgs::resolve`], returning the error instead of exiting.
    fn try_resolve(args: &Args) -> Result<CommonArgs, String> {
        let scale = parsed(args, "scale", Scale::parse)?.unwrap_or(Scale::Small);
        let dataset = parsed(args, "dataset", DatasetKind::parse)?;
        let mut params = ExperimentParams::at_scale(dataset.unwrap_or(DatasetKind::SynN), scale);
        params.k = args.try_get_or("k", params.k)?;
        params.beta = args.try_get_or("beta", params.beta)?;
        params.window = args.try_get_or("window", params.window)?;
        params.slide = args.try_get_or("slide", params.slide)?.max(1);
        params.mc_rounds = args.try_get_or("mc-rounds", params.mc_rounds)?;
        params.eval_every = args.try_get_or("eval-every", params.eval_every)?.max(1);
        params.seed = args.try_get_or("seed", params.seed)?;

        let datasets = match (args.get("datasets"), dataset) {
            (Some(list), _) => list
                .split(',')
                .map(|n| DatasetKind::parse(n).ok_or_else(|| invalid_value("datasets", n)))
                .collect::<Result<Vec<_>, _>>()?,
            (None, Some(dataset)) => vec![dataset],
            (None, None) => DatasetKind::all().to_vec(),
        };
        let budget = BaselineBudget {
            max_slides: args.try_get_or("max-slides", 0usize)?,
            ..BaselineBudget::default()
        };
        Ok(CommonArgs {
            params,
            datasets,
            budget,
            actions: parsed(args, "actions", |raw| raw.parse().ok())?,
            users: parsed(args, "users", |raw| raw.parse().ok())?,
        })
    }

    /// Generates the stream for a dataset with the resolved overrides.
    pub fn generate(&self, dataset: DatasetKind) -> SocialStream {
        let mut cfg = DatasetConfig::new(dataset, self.params.scale);
        if let Some(a) = self.actions {
            cfg = cfg.with_actions(a);
        }
        if let Some(u) = self.users {
            cfg = cfg.with_users(u);
        }
        cfg.generate()
    }
}

/// The value of `--key` parsed with `parse`, if given; one that does not
/// parse is an error naming the flag and the value.
fn parsed<T>(args: &Args, key: &str, parse: fn(&str) -> Option<T>) -> Result<Option<T>, String> {
    args.get(key)
        .map(|raw| parse(raw).ok_or_else(|| invalid_value(key, raw)))
        .transpose()
}

/// Result of a β sweep on one dataset: IC and SIC runs per β (Figures 5–7).
#[derive(Debug, Clone)]
pub struct BetaSweep {
    /// The swept β values.
    pub betas: Vec<f64>,
    /// IC run per β.
    pub ic: Vec<MethodRun>,
    /// SIC run per β.
    pub sic: Vec<MethodRun>,
}

impl BetaSweep {
    /// Runs IC and SIC for each β on the given stream.
    pub fn run(stream: &SocialStream, params: &ExperimentParams, betas: &[f64]) -> BetaSweep {
        let mut ic = Vec::with_capacity(betas.len());
        let mut sic = Vec::with_capacity(betas.len());
        for &beta in betas {
            let mut p = *params;
            p.beta = beta;
            let config = p.sim_config();
            sic.push(run_method(
                MethodKind::Sic,
                config,
                stream,
                BaselineBudget::default(),
                p.seed,
            ));
            ic.push(run_method(
                MethodKind::Ic,
                config,
                stream,
                BaselineBudget::default(),
                p.seed,
            ));
        }
        BetaSweep {
            betas: betas.to_vec(),
            ic,
            sic,
        }
    }

    /// Extracts one metric as printable series (SIC first, like the paper).
    pub fn series(&self, metric: impl Fn(&MethodRun) -> f64) -> Vec<Series> {
        vec![
            Series::new("SIC", self.sic.iter().map(&metric).collect()),
            Series::new("IC", self.ic.iter().map(&metric).collect()),
        ]
    }

    /// The β values as x-axis labels.
    pub fn x_labels(&self) -> Vec<String> {
        self.betas.iter().map(|b| format!("{b}")).collect()
    }
}

/// Result of a sweep over an arbitrary parameter for a set of methods
/// (Figures 8–12): one `MethodRun` per (method, swept value).
#[derive(Debug, Clone)]
pub struct MethodSweep {
    /// Labels of the swept values (x axis).
    pub x_labels: Vec<String>,
    /// Methods in presentation order.
    pub methods: Vec<MethodKind>,
    /// `runs[m][x]` — the run of method `m` at swept value `x`.
    pub runs: Vec<Vec<MethodRun>>,
}

impl MethodSweep {
    /// Runs every method for every swept value.  `configure` maps a swept
    /// value index to the parameters for that run; `streams` yields the
    /// stream for that index (several sweeps reuse one stream, Figure 12
    /// regenerates per point).
    pub fn run(
        methods: &[MethodKind],
        xs: &[String],
        budget: BaselineBudget,
        mut stream_for: impl FnMut(usize) -> SocialStream,
        mut params_for: impl FnMut(usize) -> ExperimentParams,
    ) -> MethodSweep {
        let mut runs = vec![Vec::with_capacity(xs.len()); methods.len()];
        for (xi, _) in xs.iter().enumerate() {
            let stream = stream_for(xi);
            let params = params_for(xi);
            let config = params.sim_config();
            for (mi, &method) in methods.iter().enumerate() {
                runs[mi].push(run_method(method, config, &stream, budget, params.seed));
            }
        }
        MethodSweep {
            x_labels: xs.to_vec(),
            methods: methods.to_vec(),
            runs,
        }
    }

    /// Throughput series per method (the metric of Figures 9–12).
    pub fn throughput_series(&self) -> Vec<Series> {
        self.methods
            .iter()
            .enumerate()
            .map(|(mi, m)| {
                Series::new(
                    m.name(),
                    self.runs[mi].iter().map(|r| r.throughput).collect(),
                )
            })
            .collect()
    }

    /// Quality series per method: average WC Monte-Carlo spread of the
    /// reported seeds (the metric of Figure 8).  Requires the streams and
    /// parameters used during the sweep to rebuild the evaluation graphs.
    pub fn quality_series(
        &self,
        mut stream_for: impl FnMut(usize) -> SocialStream,
        mut params_for: impl FnMut(usize) -> ExperimentParams,
    ) -> Vec<Series> {
        let mut series = Vec::with_capacity(self.methods.len());
        for (mi, m) in self.methods.iter().enumerate() {
            let mut values = Vec::with_capacity(self.x_labels.len());
            for xi in 0..self.x_labels.len() {
                let stream = stream_for(xi);
                let params = params_for(xi);
                let run = &self.runs[mi][xi];
                values.push(evaluate_average_spread(
                    &stream,
                    params.sim_config(),
                    &run.seeds_per_slide,
                    params.mc_rounds,
                    params.eval_every,
                    params.seed,
                ));
            }
            series.push(Series::new(m.name(), values));
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ExperimentParams {
        let mut p = ExperimentParams::small(DatasetKind::SynN);
        p.k = 5;
        p.window = 300;
        p.slide = 50;
        p.mc_rounds = 50;
        p
    }

    fn tiny_stream() -> SocialStream {
        DatasetConfig::new(DatasetKind::SynN, Scale::Small)
            .with_users(200)
            .with_actions(1_200)
            .generate()
    }

    #[test]
    fn beta_sweep_produces_aligned_series() {
        let stream = tiny_stream();
        let sweep = BetaSweep::run(&stream, &tiny_params(), &[0.1, 0.5]);
        assert_eq!(sweep.betas.len(), 2);
        let value_series = sweep.series(|r| r.avg_value);
        assert_eq!(value_series.len(), 2);
        assert_eq!(value_series[0].values.len(), 2);
        // SIC maintains no more checkpoints than IC at the same β, modulo
        // the expired sentinel Λ[x0] that only SIC keeps (relevant on tiny
        // windows like this one; on paper-scale windows SIC is far below).
        let cp = sweep.series(|r| r.avg_checkpoints);
        for i in 0..2 {
            assert!(cp[0].values[i] <= cp[1].values[i] + 1.0);
        }
        assert_eq!(sweep.x_labels(), vec!["0.1", "0.5"]);
    }

    #[test]
    fn method_sweep_runs_streaming_methods() {
        let stream = tiny_stream();
        let params = tiny_params();
        let xs = vec!["5".to_string(), "10".to_string()];
        let sweep = MethodSweep::run(
            &MethodKind::streaming(),
            &xs,
            BaselineBudget::default(),
            |_| stream.clone(),
            |xi| {
                let mut p = params;
                p.k = if xi == 0 { 5 } else { 10 };
                p
            },
        );
        let tp = sweep.throughput_series();
        assert_eq!(tp.len(), 2);
        assert!(tp.iter().all(|s| s.values.iter().all(|&v| v > 0.0)));
        let quality = sweep.quality_series(|_| stream.clone(), |_| params);
        assert_eq!(quality[0].values.len(), 2);
        assert!(quality[0].values[0] > 0.0);
    }

    #[test]
    fn common_args_resolve_defaults_and_overrides() {
        let args = Args::from_iter(
            ["--k", "7", "--dataset", "syn-o", "--actions", "5000"]
                .iter()
                .map(|s| s.to_string()),
            COMMON_KEYS,
        )
        .unwrap();
        let common = CommonArgs::resolve(&args);
        assert_eq!(common.params.k, 7);
        assert_eq!(common.datasets, vec![DatasetKind::SynO]);
        assert_eq!(common.actions, Some(5000));
        let stream = common.generate(DatasetKind::SynO);
        assert_eq!(stream.len(), 5000);
    }
}
