"""Commutative one-way functions for client-side rights restriction.

Rights-protection scheme 3 (§2.3) needs N one-way functions
``F_0 .. F_{N-1}`` — one per rights bit — that *commute*:
``F_i(F_j(x)) == F_j(F_i(x))`` for all i, j, so that the order in which a
capability's rights are stripped does not matter.

The paper defers the construction to Mullender's thesis; the standard
instance, used here, is modular exponentiation with fixed prime exponents
over an RSA modulus ``n``::

    F_k(x) = x ** e_k  (mod n)

Exponentiations commute (``x**(e_i * e_j)``), and computing e-th roots
modulo ``n`` without the factorisation of ``n`` is believed as hard as
RSA.  The default modulus below was generated once with both ``p - 1`` and
``q - 1`` coprime to every exponent (so each ``F_k`` is a *permutation* of
the group) and the factors were discarded.

Deviation from Fig. 2: sound group elements need ~512 bits, not 48, so
scheme-3 capabilities carry an extended check field.
"""

from repro.util.bits import mask

#: 512-bit RSA modulus with unknown factorisation; p-1 and q-1 are coprime
#: to all of DEFAULT_EXPONENTS, making each F_k a permutation of Z_n*.
DEFAULT_MODULUS = int(
    "0x887fd9bc0fc7df6feaba0d65c5a08b2346ffd63062c5eab18f16c26a93135c26"
    "079d62d59ca7e43c5e49be07573ba19803d35b70597ff9dda5168d688d662f1d",
    16,
)

#: One small odd prime per rights bit; distinct primes guarantee that
#: stripping different rights composes to a different exponent.
DEFAULT_EXPONENTS = (3, 5, 7, 11, 13, 17, 19, 23)


class CommutativeOneWayFamily:
    """The family ``F_k(x) = x**e_k mod n`` of commuting one-way functions.

    One instance is shared by a server and all of its clients: applying
    ``F_k`` requires no secret, which is exactly what lets a client strip
    right ``k`` from a capability without contacting the server.
    """

    def __init__(self, modulus=DEFAULT_MODULUS, exponents=DEFAULT_EXPONENTS):
        if modulus < (1 << 32):
            raise ValueError("modulus is far too small to be one-way")
        if len(set(exponents)) != len(exponents):
            raise ValueError("exponents must be distinct")
        for e in exponents:
            if e < 2:
                raise ValueError("exponent %d cannot be one-way" % e)
        self.modulus = modulus
        self.exponents = tuple(exponents)
        #: Number of rights bits this family can protect.
        self.n_functions = len(self.exponents)
        #: Bytes needed to carry one group element in a check field.
        self.element_bytes = (modulus.bit_length() + 7) // 8

    def apply(self, k, x):
        """Apply ``F_k`` to group element ``x``."""
        self._check_index(k)
        self._check_element(x)
        return pow(x, self.exponents[k], self.modulus)

    def apply_many(self, ks, x):
        """Apply ``F_k`` for every index in ``ks`` (order irrelevant).

        The composite exponent is computed first so a server verifying a
        capability with several stripped rights pays one modular
        exponentiation, not one per right.
        """
        self._check_element(x)
        exponent = 1
        for k in ks:
            self._check_index(k)
            exponent *= self.exponents[k]
        if exponent == 1:
            return x
        return pow(x, exponent, self.modulus)

    def indices_for_deleted_rights(self, rights_bits, width):
        """Return the function indices for the rights *absent* from a mask.

        The server applies the functions "corresponding to the deleted
        rights" (§2.3); this maps a plaintext rights field to those indices.
        """
        if width > self.n_functions:
            raise ValueError(
                "rights width %d exceeds the %d available functions"
                % (width, self.n_functions)
            )
        if rights_bits < 0 or rights_bits > mask(width):
            raise ValueError("rights %#x outside %d-bit field" % (rights_bits, width))
        return [k for k in range(width) if not (rights_bits >> k) & 1]

    def random_element(self, rng):
        """Draw a uniformly random group element suitable as an object secret.

        Elements are drawn from ``[2, n - 2]``; the excluded fixed points
        0, 1, and n-1 would survive any exponentiation unchanged.
        """
        return rng.randint(2, self.modulus - 2)

    def _check_index(self, k):
        if not 0 <= k < self.n_functions:
            raise IndexError(
                "function index %d outside [0, %d)" % (k, self.n_functions)
            )

    def _check_element(self, x):
        if not 0 <= x < self.modulus:
            raise ValueError("element %#x outside the group" % x)

    def __repr__(self):
        return "CommutativeOneWayFamily(n_functions=%d, modulus_bits=%d)" % (
            self.n_functions,
            self.modulus.bit_length(),
        )
