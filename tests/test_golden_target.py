"""Golden target and encoding outputs: the logical Bell pair and the tree code, pinned.

The digests below were recorded before the tree layout was given a single
owner.  ``TARGET`` holds the sha256 of
``tableau_text(logical_bell_tableau(b).canonical())``, the stabilizer group
the Bell-pair verifier compares against.  ``ENCODED`` holds the sha256 of the
canonical text of ``encode_logical(b, prep, outcomes)``; the
outcome-dependent frame fix makes it the same for all four outcome pairs,
and every pair is checked against it.  ``LOGICALS`` holds the designated
logical X and Z labels of each code.  Any change to a generator, a sign, a
column order or the frame fix moves one of them.
"""

import hashlib
import itertools

import pytest

from treebsm.genseq import logical_bell_tableau

from builders import encode_logical, tableau_text

TARGET = {
    "2": "4aab639d9c90a0c3f5a3d6a74645d52b17de804378ca7399d4a499b20659b0ae",
    "1,1": "4439964de662841b0450a29191ec0a039717b04b0cf66f102b90bfb7257dc2ca",
    "2,2": "24b8e9cd34cb74e163a873acc3a5abc5b56f7ece0cbceef1d326ed7fa82d04ac",
    "3,2,2": "39a22ae8861093b5dda0d002b3250fc58ff210e3361e999738bff652f65df7d4",
    "4,4,4": "3ad0475d2daa63f8219e1e76472387e3939931703393866eddf64da2dc0e7737",
}

# b -> (x_logical label, z_logical label)
LOGICALS = {
    "2": ("+XI", "+ZZ"),
    "3": ("+XII", "+ZZZ"),
    "2,2": ("+XIZZII", "+ZZIIII"),
    "3,2": ("+XIIZZIIII", "+ZZZIIIIII"),
}

# (b, prep) -> sha256 of the encoded code's canonical text
ENCODED = {
    ("2", "+X"): "c7dc46d686468c68970b8ec95f8be190cde020199ca8e8871f0738fb9cbda87a",
    ("2", "+Z"): "82a6dada7e9dcc3de10e205f0f6222fa637b928212b87dece4aa86c2b4cc38a6",
    ("2", "-Z"): "2a6a2557cd011bf293514290c6879c6f9757b772843b04aee6e9c183e7fa03c5",
    ("2", "+Y"): "4fad9bcf46737abaecad9b2fa7955fe91e80c9beec2f1de11ed0f4c5465f56cd",
    ("3", "+X"): "6d1e2fffe43d232cb409854f17d4662c05ac40065091c95cf561bbfc0d350171",
    ("3", "+Z"): "0a48a68f8816e6d66c6273c80a15b31458d480a5ffea071f27729bd22d357d90",
    ("3", "-Z"): "b423c0ce5ab2d6550aae53f417094a629d302a20891e80014ed06c09e2f1e28e",
    ("3", "+Y"): "f2631313bc7777ddaa4570a5f707967f5ce3df12bdb2c66bf1938860e6ccd81f",
    ("2,2", "+X"): "5c8f31d308236b3e1ad48a26015f396561e2490529df9ca6f5053dca91427122",
    ("2,2", "+Z"): "8cb715ee558737c6f17144dd9bdc2b80687a1d506a84d36db01b40b05f0978ee",
    ("2,2", "-Z"): "30dbb9f1d34d73e5087c028ac9e34e0b8ce8de6157427488005eefb2d18fa141",
    ("2,2", "+Y"): "536de030e5eae295e0bd556257e1aa10b0e7c20db61e59bfe006e6086a72b6d2",
    ("3,2", "+X"): "89c74f8239f5819800f10d2753e2d8ee933d0717935e79b7764cb2a37f13961f",
    ("3,2", "+Z"): "05d6249c7a79c6a79573e90f9ac4e88ba37352cb008e12e49b3884b0aec6d996",
    ("3,2", "-Z"): "714e1c60cac3351cb6dc883dd0e30a679a2b3149a7cbeea3754b0c560624879f",
    ("3,2", "+Y"): "f4bf53574562d76cd9d6c8c8198d8a0e746e2c2b2108cc7295e80deefe4edfbf",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("b", sorted(TARGET))
def test_logical_bell_target(b):
    assert _sha(tableau_text(logical_bell_tableau(b).canonical())) == TARGET[b]


@pytest.mark.parametrize("b,prep", sorted(ENCODED))
def test_encoded_code_and_logicals(b, prep):
    for outcomes in itertools.product((1, -1), repeat=2):
        code, x_logical, z_logical = encode_logical(b, prep, outcomes=outcomes)
        assert _sha(tableau_text(code.canonical())) == ENCODED[(b, prep)], outcomes
        assert (x_logical.to_label(), z_logical.to_label()) == LOGICALS[b]
