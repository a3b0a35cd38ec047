//! Conversion from parsed YAML to the typed configuration model.

use crate::condition::Condition;
use crate::types::{AugOp, Branch, BranchArm, BranchType, InputSource, SamplingConfig, TaskConfig};
use crate::yaml::{self, Value};
use crate::{ConfigError, Result};

/// Fetches a required string field.
fn req_str(v: &Value, field: &str) -> Result<String> {
    v.get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ConfigError::MissingField {
            field: field.to_string(),
        })
}

/// Fetches a required positive integer field.
fn req_usize(v: &Value, field: &str) -> Result<usize> {
    let i = v
        .get(field)
        .and_then(Value::as_int)
        .ok_or_else(|| ConfigError::MissingField {
            field: field.to_string(),
        })?;
    usize::try_from(i).map_err(|_| ConfigError::InvalidField {
        field: field.to_string(),
        what: "must be non-negative".into(),
    })
}

/// Fetches a list of strings.
fn str_list(v: &Value, field: &str) -> Result<Vec<String>> {
    let list = v
        .get(field)
        .and_then(Value::as_list)
        .ok_or_else(|| ConfigError::MissingField {
            field: field.to_string(),
        })?;
    list.iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| ConfigError::InvalidField {
                    field: field.to_string(),
                    what: "expected string entries".into(),
                })
        })
        .collect()
}

/// Parses a `[w, h]` shape list.
fn shape_pair(v: &Value, field: &str) -> Result<(usize, usize)> {
    let list = v.as_list().ok_or_else(|| ConfigError::InvalidField {
        field: field.to_string(),
        what: "expected `[w, h]`".into(),
    })?;
    if list.len() != 2 {
        return Err(ConfigError::InvalidField {
            field: field.to_string(),
            what: "expected exactly two entries".into(),
        });
    }
    let get = |i: usize| -> Result<usize> {
        list[i]
            .as_int()
            .and_then(|x| usize::try_from(x).ok())
            .ok_or_else(|| ConfigError::InvalidField {
                field: field.to_string(),
                what: "entries must be non-negative integers".into(),
            })
    };
    Ok((get(0)?, get(1)?))
}

/// Parses one op map such as `{resize: {shape: [256, 320], ...}}`.
fn parse_op(v: &Value) -> Result<AugOp> {
    let map = v.as_map().ok_or_else(|| ConfigError::InvalidField {
        field: "config".into(),
        what: "each op must be a single-key map".into(),
    })?;
    if map.len() != 1 {
        return Err(ConfigError::InvalidField {
            field: "config".into(),
            what: "each op must be a single-key map".into(),
        });
    }
    let (name, body) = map.iter().next().expect("len checked");
    let op = match name.as_str() {
        "resize" => {
            let shape = body.get("shape").ok_or(ConfigError::MissingField {
                field: "resize.shape".into(),
            })?;
            let (w, h) = shape_pair(shape, "resize.shape")?;
            // The paper writes `interpolation: ["bilinear"]`; accept both a
            // one-element list and a bare string.
            let interp = match body.get("interpolation") {
                Some(Value::Str(s)) => s.clone(),
                Some(Value::List(l)) if l.len() == 1 => l[0]
                    .as_str()
                    .ok_or_else(|| ConfigError::InvalidField {
                        field: "resize.interpolation".into(),
                        what: "expected a string".into(),
                    })?
                    .to_string(),
                None => "bilinear".to_string(),
                _ => {
                    return Err(ConfigError::InvalidField {
                        field: "resize.interpolation".into(),
                        what: "expected a string or one-element list".into(),
                    })
                }
            };
            AugOp::Resize {
                w,
                h,
                interpolation: interp,
            }
        }
        "random_crop" => {
            let shape = body.get("shape").ok_or(ConfigError::MissingField {
                field: "random_crop.shape".into(),
            })?;
            let (w, h) = shape_pair(shape, "random_crop.shape")?;
            AugOp::RandomCrop { w, h }
        }
        "center_crop" => {
            let shape = body.get("shape").ok_or(ConfigError::MissingField {
                field: "center_crop.shape".into(),
            })?;
            let (w, h) = shape_pair(shape, "center_crop.shape")?;
            AugOp::CenterCrop { w, h }
        }
        "flip" => {
            let prob = body
                .get("flip_prob")
                .and_then(Value::as_float)
                .unwrap_or(0.5);
            AugOp::Flip { prob }
        }
        "color_jitter" => AugOp::ColorJitter {
            brightness: body
                .get("brightness")
                .and_then(Value::as_float)
                .unwrap_or(0.0),
            contrast: body
                .get("contrast")
                .and_then(Value::as_float)
                .unwrap_or(0.0),
            saturation: body
                .get("saturation")
                .and_then(Value::as_float)
                .unwrap_or(0.0),
        },
        "rotate" => {
            let angles = body
                .get("angles")
                .and_then(Value::as_list)
                .ok_or(ConfigError::MissingField {
                    field: "rotate.angles".into(),
                })?
                .iter()
                .map(|a| {
                    a.as_int()
                        .and_then(|x| u32::try_from(x).ok())
                        .ok_or_else(|| ConfigError::InvalidField {
                            field: "rotate.angles".into(),
                            what: "angles must be positive integers".into(),
                        })
                })
                .collect::<Result<Vec<u32>>>()?;
            AugOp::Rotate { angles }
        }
        "inv_sample" => AugOp::Invert,
        "custom" => {
            let name =
                body.get("name")
                    .and_then(Value::as_str)
                    .ok_or(ConfigError::MissingField {
                        field: "custom.name".into(),
                    })?;
            AugOp::Custom {
                name: name.to_string(),
            }
        }
        "blur" => {
            let radius = body
                .get("radius")
                .and_then(Value::as_int)
                .and_then(|r| usize::try_from(r).ok())
                .ok_or(ConfigError::MissingField {
                    field: "blur.radius".into(),
                })?;
            AugOp::Blur { radius }
        }
        "normalize" => {
            let floats = |field: &str| -> Result<Vec<f64>> {
                body.get(field)
                    .and_then(Value::as_list)
                    .ok_or_else(|| ConfigError::MissingField {
                        field: format!("normalize.{field}"),
                    })?
                    .iter()
                    .map(|x| {
                        x.as_float().ok_or_else(|| ConfigError::InvalidField {
                            field: format!("normalize.{field}"),
                            what: "expected numbers".into(),
                        })
                    })
                    .collect()
            };
            AugOp::Normalize {
                mean: floats("mean")?,
                std: floats("std")?,
            }
        }
        other => {
            return Err(ConfigError::InvalidField {
                field: "config".into(),
                what: format!("unknown op `{other}`"),
            })
        }
    };
    op.validate()?;
    Ok(op)
}

/// Parses an op list (`config:` value), treating `None`/missing as empty.
fn parse_ops(v: Option<&Value>) -> Result<Vec<AugOp>> {
    match v {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::List(items)) => items.iter().map(parse_op).collect(),
        // `- inv_sample: true` inside conditional arms parses as a list of
        // maps whose value is `true`; normalize that spelling too.
        Some(other) => Err(ConfigError::InvalidField {
            field: "config".into(),
            what: format!("expected a list of ops, got {other:?}"),
        }),
    }
}

/// Parses one op entry that may use the boolean spelling `inv_sample: true`.
fn parse_op_lenient(v: &Value) -> Result<AugOp> {
    if let Some(map) = v.as_map() {
        if map.len() == 1 {
            let (name, body) = map.iter().next().expect("len checked");
            if name == "inv_sample" && body.as_bool() == Some(true) {
                return Ok(AugOp::Invert);
            }
        }
    }
    parse_op(v)
}

/// Parses a `config:` list leniently (boolean op spellings allowed).
fn parse_ops_lenient(v: Option<&Value>) -> Result<Vec<AugOp>> {
    match v {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::List(items)) => items.iter().map(parse_op_lenient).collect(),
        Some(other) => Err(ConfigError::InvalidField {
            field: "config".into(),
            what: format!("expected a list of ops, got {other:?}"),
        }),
    }
}

/// Parses one augmentation stage.
fn parse_branch(v: &Value) -> Result<Branch> {
    let name = req_str(v, "name")?;
    let branch_type = BranchType::parse(&req_str(v, "branch_type")?)?;
    let inputs = str_list(v, "inputs")?;
    let outputs = str_list(v, "outputs")?;
    let arms =
        match branch_type {
            BranchType::Single | BranchType::Merge => {
                vec![BranchArm {
                    condition: None,
                    prob: None,
                    ops: parse_ops(v.get("config"))?,
                }]
            }
            BranchType::Conditional => {
                let items = v.get("branches").and_then(Value::as_list).ok_or(
                    ConfigError::MissingField {
                        field: "branches".into(),
                    },
                )?;
                items
                    .iter()
                    .map(|arm| {
                        let cond = Condition::parse(&req_str(arm, "condition")?)?;
                        Ok(BranchArm {
                            condition: Some(cond),
                            prob: None,
                            ops: parse_ops_lenient(arm.get("config"))?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?
            }
            BranchType::Random => {
                let items = v.get("branches").and_then(Value::as_list).ok_or(
                    ConfigError::MissingField {
                        field: "branches".into(),
                    },
                )?;
                items
                    .iter()
                    .map(|arm| {
                        let prob = arm.get("prob").and_then(Value::as_float).ok_or(
                            ConfigError::MissingField {
                                field: "prob".into(),
                            },
                        )?;
                        Ok(BranchArm {
                            condition: None,
                            prob: Some(prob),
                            ops: parse_ops_lenient(arm.get("config"))?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?
            }
            BranchType::Multi => {
                let items = v.get("branches").and_then(Value::as_list).ok_or(
                    ConfigError::MissingField {
                        field: "branches".into(),
                    },
                )?;
                items
                    .iter()
                    .map(|arm| {
                        Ok(BranchArm {
                            condition: None,
                            prob: None,
                            ops: parse_ops_lenient(arm.get("config"))?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?
            }
        };
    Ok(Branch {
        name,
        branch_type,
        inputs,
        outputs,
        arms,
    })
}

/// Parses a complete task configuration from YAML text.
///
/// The document must have a single top-level `dataset:` section as in the
/// paper's Fig. 9.
///
/// # Examples
///
/// ```
/// let text = r#"
/// dataset:
///   tag: "train"
///   input_source: file
///   video_dataset_path: /dataset/train
///   sampling:
///     videos_per_batch: 8
///     frames_per_video: 8
///     frame_stride: 4
///     samples_per_video: 1
/// "#;
/// let cfg = sand_config::parse_task_config(text).unwrap();
/// assert_eq!(cfg.sampling.videos_per_batch, 8);
/// ```
pub fn parse_task_config(text: &str) -> Result<TaskConfig> {
    let doc = yaml::parse(text)?;
    let ds = doc.get("dataset").ok_or(ConfigError::MissingField {
        field: "dataset".into(),
    })?;
    let sampling_v = ds.get("sampling").ok_or(ConfigError::MissingField {
        field: "dataset.sampling".into(),
    })?;
    let sampling = SamplingConfig {
        videos_per_batch: req_usize(sampling_v, "videos_per_batch")?,
        frames_per_video: req_usize(sampling_v, "frames_per_video")?,
        frame_stride: req_usize(sampling_v, "frame_stride")?,
        samples_per_video: match sampling_v.get("samples_per_video") {
            None => 1,
            Some(_) => req_usize(sampling_v, "samples_per_video")?,
        },
    };
    let augmentation = match ds.get("augmentation") {
        None | Some(Value::Null) => Vec::new(),
        Some(Value::List(items)) => items.iter().map(parse_branch).collect::<Result<Vec<_>>>()?,
        Some(_) => {
            return Err(ConfigError::InvalidField {
                field: "dataset.augmentation".into(),
                what: "expected a list of branches".into(),
            })
        }
    };
    let cfg = TaskConfig {
        tag: req_str(ds, "tag")?,
        input_source: InputSource::parse(&req_str(ds, "input_source")?)?,
        video_dataset_path: req_str(ds, "video_dataset_path")?,
        sampling,
        augmentation,
    };
    cfg.validate()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The complete Fig. 9 example from the paper.
    const FIG9: &str = r#"
# dataset configuration in YAML format
dataset:
  tag: "train"
  # identify the input source
  input_source: file # or streaming
  video_dataset_path: /dataset/train
  # options for decoding and selection
  sampling:
    videos_per_batch: 8
    frames_per_video: 8
    frame_stride: 4
    samples_per_video: 2
  # defining augmentation steps
  augmentation:
    - name: "augment_resize"
      branch_type: "single"
      inputs: ["frame"]
      outputs: ["augmented_frame_0"]
      config:
        - resize:
            shape: [256, 320]
            interpolation: ["bilinear"]
    - name: "conditional branch"
      branch_type: "conditional"
      inputs: ["augmented_frame_0"]
      outputs: ["augmented_frame_1"]
      branches:
        - condition: "iteration > 10000"
          config:
            - inv_sample: true
        - condition: "else"
          config: None
    - name: "random_branch"
      branch_type: "random"
      inputs: ["augmented_frame_1"]
      outputs: ["augmented_frame_2"]
      branches:
        - prob: 0.5
          config:
            - flip:
                flip_prob: 0.5
        - prob: 0.5
          config: None
"#;

    #[test]
    fn fig9_parses_and_validates() {
        let cfg = parse_task_config(FIG9).unwrap();
        assert_eq!(cfg.tag, "train");
        assert_eq!(cfg.input_source, InputSource::File);
        assert_eq!(cfg.video_dataset_path, "/dataset/train");
        assert_eq!(cfg.sampling.videos_per_batch, 8);
        assert_eq!(cfg.sampling.samples_per_video, 2);
        assert_eq!(cfg.augmentation.len(), 3);
        assert_eq!(cfg.augmentation[0].branch_type, BranchType::Single);
        assert_eq!(
            cfg.augmentation[0].arms[0].ops,
            vec![AugOp::Resize {
                w: 256,
                h: 320,
                interpolation: "bilinear".into()
            }]
        );
        assert_eq!(cfg.augmentation[1].branch_type, BranchType::Conditional);
        assert_eq!(cfg.augmentation[1].arms[0].ops, vec![AugOp::Invert]);
        assert_eq!(cfg.augmentation[1].arms[1].ops, vec![]);
        assert_eq!(cfg.augmentation[2].branch_type, BranchType::Random);
        assert_eq!(cfg.augmentation[2].arms[0].prob, Some(0.5));
        assert_eq!(
            cfg.terminal_streams(),
            vec!["augmented_frame_2".to_string()]
        );
    }

    #[test]
    fn samples_per_video_defaults_to_one() {
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
"#;
        let cfg = parse_task_config(text).unwrap();
        assert_eq!(cfg.sampling.samples_per_video, 1);
    }

    #[test]
    fn missing_dataset_section() {
        assert!(matches!(
            parse_task_config("other: 1\n"),
            Err(ConfigError::MissingField { .. })
        ));
    }

    #[test]
    fn missing_sampling_fields() {
        let text = "dataset:\n  tag: t\n  input_source: file\n  video_dataset_path: /d\n  sampling:\n    videos_per_batch: 2\n";
        assert!(parse_task_config(text).is_err());
    }

    #[test]
    fn unknown_op_rejected() {
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: x
      branch_type: single
      inputs: ["frame"]
      outputs: ["a"]
      config:
        - sharpen:
            radius: 3
"#;
        assert!(matches!(
            parse_task_config(text),
            Err(ConfigError::InvalidField { .. })
        ));
    }

    #[test]
    fn unknown_branch_type_rejected() {
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: x
      branch_type: loop
      inputs: ["frame"]
      outputs: ["a"]
      config: None
"#;
        assert!(parse_task_config(text).is_err());
    }

    #[test]
    fn all_op_kinds_parse() {
        let text = r#"
dataset:
  tag: t
  input_source: streaming
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: everything
      branch_type: single
      inputs: ["frame"]
      outputs: ["a"]
      config:
        - resize:
            shape: [64, 64]
            interpolation: nearest
        - random_crop:
            shape: [32, 32]
        - center_crop:
            shape: [16, 16]
        - flip:
            flip_prob: 0.3
        - color_jitter:
            brightness: 0.2
            contrast: 0.1
            saturation: 0.05
        - rotate:
            angles: [90, 180]
        - inv_sample:
        - blur:
            radius: 2
        - normalize:
            mean: [0.45, 0.45, 0.45]
            std: [0.225, 0.225, 0.225]
"#;
        let cfg = parse_task_config(text).unwrap();
        let ops = &cfg.augmentation[0].arms[0].ops;
        assert_eq!(ops.len(), 9);
        assert_eq!(ops[0].name(), "resize");
        assert_eq!(ops[3], AugOp::Flip { prob: 0.3 });
        assert_eq!(ops[6], AugOp::Invert);
        assert_eq!(ops[7], AugOp::Blur { radius: 2 });
    }

    #[test]
    fn multi_merge_pipeline_parses() {
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: split
      branch_type: multi
      inputs: ["frame"]
      outputs: ["x", "y"]
      branches:
        - config: None
        - config:
            - inv_sample: true
    - name: join
      branch_type: merge
      inputs: ["x", "y"]
      outputs: ["z"]
      config: None
"#;
        let cfg = parse_task_config(text).unwrap();
        assert_eq!(cfg.augmentation[0].branch_type, BranchType::Multi);
        assert_eq!(cfg.augmentation[0].arms.len(), 2);
        assert_eq!(cfg.terminal_streams(), vec!["z".to_string()]);
    }

    #[test]
    fn retired_execution_section_is_an_ignored_unknown_key() {
        let with_block = format!("{FIG9}  execution:\n    sticky_affinity: false\n");
        assert_eq!(
            parse_task_config(&with_block).unwrap(),
            parse_task_config(FIG9).unwrap()
        );
    }
}
