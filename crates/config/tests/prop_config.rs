//! Property-based tests for the YAML-subset parser and config validation:
//! the parser must never panic on arbitrary input, and valid configs must
//! survive structural perturbation checks.

#![allow(clippy::unwrap_used)]

mod spec_gen;

use proptest::prelude::*;
use sand_config::{
    parse_task_config, yaml, Branch, BranchArm, BranchType, Condition, InputSource, SamplingConfig,
    TaskConfig,
};
use spec_gen::{render, spec_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn yaml_parser_never_panics(text in "\\PC{0,400}") {
        // Arbitrary printable soup: parse must return Ok or Err, not panic.
        let _ = yaml::parse(&text);
    }

    #[test]
    fn yaml_parser_never_panics_on_structured_soup(
        keys in prop::collection::vec("[a-z_]{1,8}", 1..8),
        indents in prop::collection::vec(0usize..6, 1..8),
        vals in prop::collection::vec(prop_oneof![
            Just("1".to_string()),
            Just("true".to_string()),
            Just("[1, 2]".to_string()),
            Just("\"s\"".to_string()),
            Just(String::new()),
        ], 1..8),
    ) {
        let mut text = String::new();
        for ((k, i), v) in keys.iter().zip(indents.iter()).zip(vals.iter()) {
            text.push_str(&" ".repeat(*i));
            text.push_str(k);
            text.push_str(": ");
            text.push_str(v);
            text.push('\n');
        }
        let _ = yaml::parse(&text);
    }

    #[test]
    fn task_config_parser_never_panics(text in "\\PC{0,400}") {
        let _ = parse_task_config(&text);
    }

    #[test]
    fn condition_parser_never_panics(text in "\\PC{0,60}") {
        let _ = Condition::parse(&text);
    }

    #[test]
    fn condition_eval_total(var_iter in any::<u64>(), var_epoch in any::<u64>(), value in any::<u64>()) {
        for op in ["<", "<=", ">", ">=", "=="] {
            for var in ["iteration", "epoch"] {
                let c = Condition::parse(&format!("{var} {op} {value}")).unwrap();
                // Evaluation is total and consistent with its negation
                // where one exists.
                let _ = c.eval(var_iter, var_epoch);
            }
        }
    }

    #[test]
    fn scalar_values_roundtrip_through_maps(n in any::<i64>(), f in any::<f64>(), b in any::<bool>()) {
        prop_assume!(f.is_finite());
        let text = format!("i: {n}\nb: {b}\nf: {f:?}\n");
        let v = yaml::parse(&text).unwrap();
        prop_assert_eq!(v.get("i").unwrap().as_int(), Some(n));
        prop_assert_eq!(v.get("b").unwrap().as_bool(), Some(b));
        let parsed_f = v.get("f").unwrap().as_float().unwrap();
        prop_assert!((parsed_f - f).abs() <= f.abs() * 1e-12);
    }

    #[test]
    fn valid_sampling_configs_always_parse(
        vpb in 1usize..64, fpv in 1usize..64, stride in 1usize..64, samples in 1usize..8,
    ) {
        let text = format!(
            "dataset:\n  tag: t\n  input_source: file\n  video_dataset_path: /d\n  sampling:\n    videos_per_batch: {vpb}\n    frames_per_video: {fpv}\n    frame_stride: {stride}\n    samples_per_video: {samples}\n"
        );
        let cfg = parse_task_config(&text).unwrap();
        prop_assert_eq!(cfg.sampling.videos_per_batch, vpb);
        prop_assert_eq!(cfg.sampling.clip_span(), (fpv - 1) * stride + 1);
    }

    /// Perturbing one arm probability past the tolerance (bypassing the
    /// parser, as a programmatic config constructor could) fails
    /// `validate`, which the engine runs before anything else.
    #[test]
    fn perturbed_probabilities_fail_validate(
        spec in spec_strategy(),
        delta in 0.001f64..0.4,
    ) {
        let yaml = render(&spec);
        let mut cfg = parse_task_config(&yaml).unwrap();
        let Some(branch) = cfg
            .augmentation
            .iter_mut()
            .find(|b| b.branch_type == BranchType::Random)
        else {
            return Ok(()); // no random branch generated this round
        };
        if let Some(p) = &mut branch.arms[0].prob {
            *p += delta;
        }
        prop_assert!(cfg.validate().is_err(), "accepted {cfg:?}");
    }

    /// Rewiring a branch input to an undefined stream fails `validate`.
    #[test]
    fn dangling_inputs_fail_validate(spec in spec_strategy()) {
        let yaml = render(&spec);
        let mut cfg = parse_task_config(&yaml).unwrap();
        cfg.augmentation[0].inputs = vec!["nope".to_string()];
        prop_assert!(cfg.validate().is_err(), "accepted {cfg:?}");
    }
}

/// Direct-construction mutation: a config with probabilities summing to
/// 0.6 routed past the parser must fail `validate`, not be trusted.
#[test]
fn constructed_bad_distribution_fails_validate() {
    let cfg = TaskConfig {
        tag: "t".into(),
        input_source: InputSource::File,
        video_dataset_path: "/d".into(),
        sampling: SamplingConfig::default(),
        augmentation: vec![Branch {
            name: "r".into(),
            branch_type: BranchType::Random,
            inputs: vec!["frame".into()],
            outputs: vec!["a0".into()],
            arms: vec![
                BranchArm {
                    condition: None,
                    prob: Some(0.3),
                    ops: vec![],
                },
                BranchArm {
                    condition: None,
                    prob: Some(0.3),
                    ops: vec![],
                },
            ],
        }],
    };
    assert!(cfg.validate().is_err());
}
