//! Named pipeline configurations — the short strings clients (and the
//! `dump` command) use to pick a transform: `baseline`, `unroll<k>`,
//! `unmerge`, `uu<k>`, `uu<k>+meld`, `meld`, `heuristic`.

use uu_core::Transform;

/// Parse a config name into a [`Transform`]; `None` if unrecognized.
///
/// A factor suffix must be a positive decimal integer: `uu`, `uu0`,
/// `uu8x` and `unroll+4` are `None`, never some default factor.
pub fn parse_config(name: &str) -> Option<Transform> {
    fn factor(digits: &str) -> Option<u32> {
        if !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok().filter(|&k| k > 0)
    }
    Some(match name {
        "baseline" => Transform::Baseline,
        "unmerge" => Transform::Unmerge,
        "heuristic" => Transform::UuHeuristic(Default::default()),
        "meld" => Transform::Meld,
        c if c.starts_with("unroll") => Transform::Unroll {
            factor: factor(&c[6..])?,
        },
        c if c.starts_with("uu") && c.ends_with("+meld") => Transform::UuMeld {
            factor: factor(&c[2..c.len() - 5])?,
            unmerge: Default::default(),
        },
        c if c.starts_with("uu") => Transform::Uu {
            factor: factor(&c[2..])?,
            unmerge: Default::default(),
        },
        _ => return None,
    })
}

/// The inverse of [`parse_config`]: render a [`Transform`] back as a
/// config name, or `None` when the transform carries tuning options the
/// name grammar cannot express (compared by `Debug` rendering, the same
/// canonical form the cache key uses). The remote compile backend uses
/// this to ship a sweep point's transform to the daemon as a header.
pub fn config_name(t: &Transform) -> Option<String> {
    let default_unmerge = |u: &uu_core::UnmergeOptions| {
        format!("{u:?}") == format!("{:?}", uu_core::UnmergeOptions::default())
    };
    Some(match t {
        Transform::Baseline => "baseline".to_string(),
        Transform::Unmerge => "unmerge".to_string(),
        Transform::Meld => "meld".to_string(),
        Transform::Unroll { factor } => format!("unroll{factor}"),
        Transform::Uu { factor, unmerge } if default_unmerge(unmerge) => format!("uu{factor}"),
        Transform::UuMeld { factor, unmerge } if default_unmerge(unmerge) => {
            format!("uu{factor}+meld")
        }
        Transform::UuHeuristic(h)
            if format!("{h:?}") == format!("{:?}", uu_core::HeuristicOptions::default()) =>
        {
            "heuristic".to_string()
        }
        _ => return None,
    })
}

/// The accepted config-name grammar, for usage/error messages.
pub fn config_names() -> &'static str {
    "baseline | unroll<k> | unmerge | uu<k> | uu<k>+meld | meld | heuristic"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognizes_every_family() {
        assert!(matches!(parse_config("baseline"), Some(Transform::Baseline)));
        assert!(matches!(parse_config("unmerge"), Some(Transform::Unmerge)));
        assert!(matches!(parse_config("meld"), Some(Transform::Meld)));
        assert!(matches!(
            parse_config("unroll8"),
            Some(Transform::Unroll { factor: 8 })
        ));
        assert!(matches!(
            parse_config("uu2"),
            Some(Transform::Uu { factor: 2, .. })
        ));
        assert!(matches!(
            parse_config("uu4+meld"),
            Some(Transform::UuMeld { factor: 4, .. })
        ));
        assert!(matches!(
            parse_config("heuristic"),
            Some(Transform::UuHeuristic(_))
        ));
        assert!(parse_config("turbo").is_none());
        assert!(parse_config("").is_none());
    }

    #[test]
    fn config_name_round_trips_through_parse_config() {
        // The remote backend's contract: every transform the sweep/study
        // drivers emit must survive name → parse → name unchanged (the
        // canonical-config Debug strings must match, since that string IS
        // the cache key component).
        for name in [
            "baseline", "unmerge", "meld", "heuristic", "unroll2", "unroll4", "unroll8",
            "uu2", "uu4", "uu8", "uu2+meld", "uu4+meld", "uu8+meld",
        ] {
            let t = parse_config(name).unwrap();
            let back = config_name(&t).unwrap();
            assert_eq!(back, name, "name must round-trip");
            let t2 = parse_config(&back).unwrap();
            assert_eq!(format!("{t:?}"), format!("{t2:?}"), "{name}");
        }
    }

    #[test]
    fn malformed_factors_are_refused() {
        for name in [
            "uu", "uu0", "uu8x", "uux", "uu-4", "uu+4", "uu 4", "uu+meld", "uu0+meld",
            "uu2x+meld", "unroll", "unrollx", "unroll0", "unroll+4", "unroll4.0",
            "uu99999999999",
        ] {
            assert!(parse_config(name).is_none(), "{name}");
        }
    }
}
