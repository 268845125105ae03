//! Response normalisation for the hit-equals-fill check: a cache hit must
//! answer exactly what the compile that filled the cache answered, once the
//! fields that say where the plan came from are set aside.

use hybrid_bench::json::Json;

/// Fields that legitimately differ between a hit and its fill: the
/// envelope (`seq`, `id`) and cache provenance (which layer served the plan
/// and what the tuning sweep did — all zero on a hit).
pub const PROVENANCE_FIELDS: &[&str] = &[
    "seq",
    "id",
    "cache",
    "cache_hit",
    "examined",
    "shortlisted",
    "simulated",
    "proxy_simulated",
    "full_simulated",
    "tune_wall_ms",
    "warm_start",
    "warm_start_hit",
];

/// `resp` without the [`PROVENANCE_FIELDS`], other fields in their
/// original order. Non-object values are returned unchanged.
pub fn normalize(resp: &Json) -> Json {
    match resp {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !PROVENANCE_FIELDS.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// True when `hit` and `fill` agree on every non-provenance field,
/// compared on their rendered text (so floats compare bit for bit).
pub fn same_outcome(hit: &Json, fill: &Json) -> bool {
    normalize(hit).render_compact() == normalize(fill).render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(seq: i64, cache: &str, simulated: u64, h: i64, gstencils: f64) -> Json {
        Json::obj(vec![
            ("v", Json::Int(1)),
            ("seq", Json::Int(seq)),
            ("id", Json::str(format!("r{seq}"))),
            ("name", Json::str("jacobi2d")),
            ("status", Json::str("ok")),
            ("cache_hit", Json::Bool(cache != "miss")),
            ("cache", Json::str(cache)),
            ("examined", Json::UInt(simulated * 2)),
            ("shortlisted", Json::UInt(simulated)),
            ("simulated", Json::UInt(simulated)),
            ("proxy_simulated", Json::UInt(0)),
            ("full_simulated", Json::UInt(simulated)),
            ("tune_wall_ms", Json::UInt(simulated * 7)),
            ("warm_start", Json::Bool(false)),
            ("warm_start_hit", Json::Bool(false)),
            ("h", Json::Int(h)),
            ("gstencils_per_s", Json::Num(gstencils)),
            ("verified", Json::Bool(true)),
        ])
    }

    #[test]
    fn hit_equals_fill_once_provenance_is_set_aside() {
        let fill = response(1, "miss", 12, 3, 1.25);
        let hit = response(9, "mem", 0, 3, 1.25);
        assert_ne!(hit.render_compact(), fill.render_compact());
        assert!(same_outcome(&hit, &fill));
        let n = normalize(&hit);
        for field in PROVENANCE_FIELDS {
            assert!(n.get(field).is_none(), "{field} survived normalisation");
        }
        assert_eq!(n.get("h").and_then(Json::as_i64), Some(3));
        assert_eq!(n.get("v").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn plan_or_result_differences_are_kept() {
        let fill = response(1, "miss", 12, 3, 1.25);
        assert!(!same_outcome(&response(2, "mem", 0, 2, 1.25), &fill));
        let nudged = f64::from_bits(1.25f64.to_bits() + 1);
        assert!(!same_outcome(&response(2, "mem", 0, 3, nudged), &fill));
    }

    #[test]
    fn non_objects_pass_through() {
        assert_eq!(normalize(&Json::Int(4)).render_compact(), "4");
    }
}
