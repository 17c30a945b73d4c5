"""Published JSON schemas for every machine-readable CLI payload.

The test suite validates each subcommand's output against these; they are
part of the interface and versioned with the package.
"""

_NONNEG_INT_ARRAY = {"type": "array", "items": {"type": "integer", "minimum": 0}}
_BOOL_ARRAY = {"type": "array", "items": {"type": "boolean"}}

_MATRIX = {
    "type": "array",
    "items": {
        "type": "array",
        "items": {"type": ["integer", "string"]},
    },
}

HOMOTOPY_REPORT = {
    "type": "object",
    "required": ["field", "q", "n", "T", "W", "dims", "certified_degree",
                 "stable_flags"],
    "properties": {
        "field": {"type": "integer", "minimum": 0},
        "q": {"type": "integer", "minimum": 0},
        "n": {"type": "integer", "minimum": 0},
        "T": {"type": "integer", "minimum": 0},
        "W": {"type": "integer", "minimum": 0},
        "dims": _NONNEG_INT_ARRAY,
        "certified_degree": {"type": "integer"},
        "stable_flags": _BOOL_ARRAY,
    },
    "additionalProperties": False,
}

HQ_REPORT = {
    "type": "object",
    "required": ["field", "q", "n", "T", "dims", "certified_degree"],
    "properties": {
        "field": {"type": "integer", "minimum": 0},
        "q": {"type": "integer", "minimum": 0},
        "n": {"type": "integer", "minimum": 0},
        "T": {"type": "integer", "minimum": 0},
        "dims": _NONNEG_INT_ARRAY,
        "certified_degree": {"type": "integer"},
    },
    "additionalProperties": False,
}

SIMPLICIAL_SPACE = {
    "type": "object",
    "required": ["field", "truncation", "level_dims", "faces", "degeneracies"],
    "properties": {
        "field": {"type": "integer", "minimum": 0},
        "truncation": {"type": "integer", "minimum": 0},
        "level_dims": _NONNEG_INT_ARRAY,
        "faces": {"type": "array", "items": {"type": "array", "items": _MATRIX}},
        "degeneracies": {"type": "array",
                         "items": {"type": "array", "items": _MATRIX}},
    },
    "additionalProperties": False,
}

COFIBER_REPORT = {
    "type": "object",
    "required": ["r", "s", "bounds", "pi", "pi_certified_flags", "hq",
                 "certified_degree", "notes"],
    "properties": {
        "r": {"type": "integer", "minimum": 1},
        "s": {"type": "integer", "minimum": 1},
        "bounds": {
            "type": "object",
            "required": ["N", "T", "W"],
            "properties": {
                "N": {"type": "integer"},
                "T": {"type": "integer"},
                "W": {"type": "integer"},
            },
        },
        "pi": _NONNEG_INT_ARRAY,
        "pi_certified_flags": _BOOL_ARRAY,
        "hq": {
            "type": "object",
            "patternProperties": {"^[0-9]+$": {"type": "integer", "minimum": 0}},
            "additionalProperties": False,
        },
        "certified_degree": {"type": "integer"},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}

SERIES = {
    "type": "object",
    "required": ["coeffs", "truncation"],
    "properties": {
        "coeffs": _NONNEG_INT_ARRAY,
        "truncation": {"type": "integer", "minimum": 0},
        "closed_form": {
            "type": "object",
            "required": ["constant", "factors"],
            "properties": {
                "constant": {"type": "integer", "minimum": 0},
                "factors": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
    },
    "additionalProperties": False,
}

AUDIT_VERDICT = {
    "type": "object",
    "required": ["outcome", "witness", "trace"],
    "properties": {
        "outcome": {"enum": ["consistent", "contradiction", "inconclusive"]},
        "witness": {"type": ["number", "null"]},
        "trace": {"type": "object"},
    },
    "additionalProperties": False,
}

RATIONAL_VERDICT = {
    "type": "object",
    "required": ["outcome", "justification"],
    "properties": {
        "outcome": {"enum": ["consistent", "forced_empty", "not_applicable"]},
        "justification": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}

RATIONAL_EXAMPLE = {
    "type": "object",
    "required": ["r", "s", "upto", "pi", "hq", "notes"],
    "properties": {
        "r": {"type": "integer", "minimum": 1},
        "s": {"type": "integer", "minimum": 1},
        "upto": {"type": "integer", "minimum": 0},
        "pi": _NONNEG_INT_ARRAY,
        "hq": {
            "type": "object",
            "patternProperties": {"^[0-9]+$": {"type": "integer", "minimum": 0}},
            "additionalProperties": False,
        },
        "notes": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}

ASYMPTOTIC = {
    "type": "object",
    "required": ["q", "n", "p", "truncation", "rows", "monotone_toward_one",
                 "inconclusive_from"],
    "properties": {
        "q": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "p": {"type": "integer", "minimum": 2},
        "truncation": {"type": "integer", "minimum": 0},
        "rows": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["t", "phi", "reference", "ratio", "stabilized"],
                "properties": {
                    "t": {"type": "number", "exclusiveMinimum": 0},
                    "phi": {"type": "number"},
                    "reference": {"type": "number", "exclusiveMinimum": 0},
                    "ratio": {"type": "number"},
                    "stabilized": {"type": "boolean"},
                },
                "additionalProperties": False,
            },
        },
        "monotone_toward_one": {"type": "boolean"},
        "inconclusive_from": {"type": ["number", "null"]},
    },
    "additionalProperties": False,
}

PROPERTY_TEST = {
    "type": "object",
    "required": ["seed", "cases", "checks", "failures"],
    "properties": {
        "seed": {"type": "integer"},
        "cases": {"type": "integer", "minimum": 0},
        "checks": {"type": "object"},
        "failures": {"type": "array"},
    },
    "additionalProperties": False,
}

SCHEMAS = {
    "pi-sphere": HOMOTOPY_REPORT,
    "hq-sphere": HQ_REPORT,
    "em": SIMPLICIAL_SPACE,
    "cofiber": COFIBER_REPORT,
    "series": SERIES,
    "audit": AUDIT_VERDICT,
    "rational-check": RATIONAL_VERDICT,
    "rational-example": RATIONAL_EXAMPLE,
    "asymptotic": ASYMPTOTIC,
    "property-test": PROPERTY_TEST,
}
