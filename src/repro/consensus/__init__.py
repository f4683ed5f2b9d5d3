"""BFT consensus for task linearization.

:class:`ConsensusMember` is the one replicated log — request pool,
batching, in-order commit, view change — and certifies slots with the
2f+1 Fast&Robust-style protocol over non-equivocating multicast used by
VP_CO (and by the RCP baseline's coordinator).  :class:`PbftMember`
subclasses it for 3f+1 groups on plain channels and certifies slots
with PBFT's prepare and commit rounds instead.  Clients use
:class:`ConsensusClient`.
"""

from repro.consensus.fast_robust import ConsensusClient, ConsensusMember
from repro.consensus.messages import CsAck, CsPropose, CsRequest, CsViewChange
from repro.consensus.pbft import PbftMember

__all__ = [
    "ConsensusClient",
    "ConsensusMember",
    "CsAck",
    "CsPropose",
    "CsRequest",
    "CsViewChange",
    "PbftMember",
]
