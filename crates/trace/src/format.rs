//! JSON forms of the two workload-shape parameters.
//!
//! The results document (`dlrv-core`'s `results` module) records every scenario's
//! [`ArrivalModel`] and [`CommTopology`]; these are their tagged-object forms.
//! Serialization is hand-written over [`dlrv_json`] (the build environment has no
//! registry access, so `serde`/`serde_json` are unavailable); the field names below
//! are the stable on-disk schema.

use crate::workload::{ArrivalModel, CommTopology};
use dlrv_json::{object, Json, JsonError};

/// Error type of the parsers; re-exported so callers need not depend on `dlrv_json`.
pub type FormatError = JsonError;

/// Serializes an arrival model as a tagged object.
pub fn arrival_to_json(arrival: &ArrivalModel) -> Json {
    match arrival {
        ArrivalModel::Normal => object([("model", Json::from("normal"))]),
        ArrivalModel::Bursty {
            burst_len,
            intra_scale,
            gap_scale,
        } => object([
            ("model", Json::from("bursty")),
            ("burst_len", Json::from(*burst_len)),
            ("intra_scale", Json::from(*intra_scale)),
            ("gap_scale", Json::from(*gap_scale)),
        ]),
    }
}

/// Parses an arrival model from its tagged-object form.
pub fn arrival_from_json(v: &Json) -> Result<ArrivalModel, FormatError> {
    match v.get("model")?.as_str()? {
        "normal" => Ok(ArrivalModel::Normal),
        "bursty" => Ok(ArrivalModel::Bursty {
            burst_len: v.get("burst_len")?.as_usize()?,
            intra_scale: v.get("intra_scale")?.as_f64()?,
            gap_scale: v.get("gap_scale")?.as_f64()?,
        }),
        other => Err(JsonError::msg(format!("unknown arrival model `{other}`"))),
    }
}

/// Serializes a communication topology as a tagged object.
pub fn topology_to_json(topology: &CommTopology) -> Json {
    match topology {
        CommTopology::Broadcast => object([("kind", Json::from("broadcast"))]),
        CommTopology::Ring => object([("kind", Json::from("ring"))]),
        CommTopology::Pipeline => object([("kind", Json::from("pipeline"))]),
        CommTopology::Hotspot { hub } => {
            object([("kind", Json::from("hotspot")), ("hub", Json::from(*hub))])
        }
    }
}

/// Parses a communication topology from its tagged-object form.
pub fn topology_from_json(v: &Json) -> Result<CommTopology, FormatError> {
    match v.get("kind")?.as_str()? {
        "broadcast" => Ok(CommTopology::Broadcast),
        "ring" => Ok(CommTopology::Ring),
        "pipeline" => Ok(CommTopology::Pipeline),
        "hotspot" => Ok(CommTopology::Hotspot {
            hub: v.get("hub")?.as_usize()?,
        }),
        other => Err(JsonError::msg(format!("unknown topology kind `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_round_trips() {
        for arrival in [
            ArrivalModel::Normal,
            ArrivalModel::Bursty {
                burst_len: 5,
                intra_scale: 0.1,
                gap_scale: 4.0,
            },
        ] {
            assert_eq!(
                arrival_from_json(&arrival_to_json(&arrival)).expect("parse"),
                arrival
            );
        }
        for topology in [
            CommTopology::Broadcast,
            CommTopology::Ring,
            CommTopology::Pipeline,
            CommTopology::Hotspot { hub: 2 },
        ] {
            assert_eq!(
                topology_from_json(&topology_to_json(&topology)).expect("parse"),
                topology
            );
        }
    }

    #[test]
    fn unknown_and_incomplete_shapes_are_rejected() {
        let unknown = object([("model", Json::from("poisson"))]);
        assert!(arrival_from_json(&unknown)
            .unwrap_err()
            .message
            .contains("poisson"));
        assert!(arrival_from_json(&object([("model", Json::from("bursty"))])).is_err());
        let unknown = object([("kind", Json::from("mesh"))]);
        assert!(topology_from_json(&unknown)
            .unwrap_err()
            .message
            .contains("mesh"));
        assert!(topology_from_json(&object([("kind", Json::from("hotspot"))])).is_err());
    }
}
